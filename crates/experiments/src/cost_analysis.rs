//! The cost-benefit analysis of §9 (Table 9a and Figure 9b): the
//! material cost of conventional vs. intra-disk parallel drives, and
//! the cost of iso-performance configurations.

use diskmodel::cost::{self, Component, CostRange};

use crate::report;

/// Platter count of the costed drives (the paper costs four-platter
/// server drives).
pub const PLATTERS: u32 = 4;

/// Renders Table 9a: per-component and per-drive cost estimates.
pub fn render_table9a() -> String {
    let headers = [
        "Component",
        "Component Cost",
        "Conventional",
        "2-Actuator",
        "4-Actuator",
    ];
    let mut rows: Vec<Vec<String>> = Component::ALL
        .iter()
        .map(|&c| {
            vec![
                c.to_string(),
                c.unit_cost().to_string(),
                cost::component_cost(c, PLATTERS, 1).to_string(),
                cost::component_cost(c, PLATTERS, 2).to_string(),
                cost::component_cost(c, PLATTERS, 4).to_string(),
            ]
        })
        .collect();
    rows.push(vec![
        "Total Estimated Cost".to_string(),
        "".to_string(),
        cost::drive_cost(PLATTERS, 1).to_string(),
        cost::drive_cost(PLATTERS, 2).to_string(),
        cost::drive_cost(PLATTERS, 4).to_string(),
    ]);
    format!(
        "Table 9a: Estimated component and disk drive costs (US dollars)\n{}",
        report::table(&headers, &rows)
    )
}

/// One bar of Figure 9b.
#[derive(Debug, Clone)]
pub struct IsoCostBar {
    /// Human-readable configuration.
    pub label: String,
    /// Total material cost of the configuration.
    pub cost: CostRange,
}

/// The three iso-performance configurations of Figure 9b (from the
/// §7.3 break-even result: 4 conventional ≈ 2 two-actuator ≈ 1
/// four-actuator).
pub fn figure9b() -> Vec<IsoCostBar> {
    vec![
        IsoCostBar {
            label: "4 Conventional Disk Drives".to_string(),
            cost: cost::configuration_cost(4, PLATTERS, 1),
        },
        IsoCostBar {
            label: "2 2-Actuator Disk Drives".to_string(),
            cost: cost::configuration_cost(2, PLATTERS, 2),
        },
        IsoCostBar {
            label: "1 4-Actuator Disk Drive".to_string(),
            cost: cost::configuration_cost(1, PLATTERS, 4),
        },
    ]
}

/// Renders Figure 9b.
pub fn render_figure9b() -> String {
    let bars = figure9b();
    let headers = [
        "configuration",
        "cost low",
        "cost mid",
        "cost high",
        "vs conventional",
    ];
    let base = bars[0].cost.midpoint();
    let rows: Vec<Vec<String>> = bars
        .iter()
        .map(|b| {
            vec![
                b.label.clone(),
                format!("${:.1}", b.cost.low),
                format!("${:.1}", b.cost.midpoint()),
                format!("${:.1}", b.cost.high),
                format!("{:+.0}%", (b.cost.midpoint() / base - 1.0) * 100.0),
            ]
        })
        .collect();
    format!(
        "Figure 9b: Iso-performance cost comparison\n{}",
        report::table(&headers, &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_published_totals() {
        let s = render_table9a();
        assert!(s.contains("$67.7-80.8"));
        assert!(s.contains("$100.4-116.6"));
        assert!(s.contains("$165.8-188.2"));
    }

    #[test]
    fn figure9b_savings_match_paper() {
        let bars = figure9b();
        let base = bars[0].cost.midpoint();
        let save2 = 1.0 - bars[1].cost.midpoint() / base;
        let save4 = 1.0 - bars[2].cost.midpoint() / base;
        // §9: "2 intra-disk parallel drives ... at 27% lower cost" and
        // "one 4-actuator drive ... at 40% lower cost".
        assert!((save2 - 0.27).abs() < 0.03, "save2 {save2}");
        assert!((save4 - 0.40).abs() < 0.03, "save4 {save4}");
    }

    #[test]
    fn render_has_percent_column() {
        let s = render_figure9b();
        assert!(s.contains("-27%") || s.contains("-26%") || s.contains("-28%"));
    }
}
