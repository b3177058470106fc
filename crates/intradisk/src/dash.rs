//! The DASH taxonomy of §4.
//!
//! A point in the intra-disk parallelism design space is a 4-tuple
//! `Dk Al Sm Hn`: the degree of parallelism in the **D**isk stacks,
//! **A**rm assemblies, **S**urfaces accessed concurrently, and **H**eads
//! per arm per surface. A conventional drive is `D1 A1 S1 H1`; the
//! paper's evaluated designs HC-SD-SA(n) are `D1 An S1 H1`.

use std::fmt;
use std::str::FromStr;

/// A point in the DASH design space.
///
/// ```
/// use intradisk::DashConfig;
///
/// let sa2: DashConfig = "D1A2S1H1".parse()?;
/// assert_eq!(sa2, DashConfig::sa(2));
/// assert_eq!(sa2.max_transfer_paths(), 2);
/// # Ok::<(), intradisk::dash::ParseDashError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DashConfig {
    disk_stacks: u32,
    arm_assemblies: u32,
    surfaces: u32,
    heads: u32,
}

impl DashConfig {
    /// Creates a taxonomy point.
    ///
    /// # Panics
    /// Panics if any degree is zero.
    pub fn new(disk_stacks: u32, arm_assemblies: u32, surfaces: u32, heads: u32) -> Self {
        assert!(
            disk_stacks > 0 && arm_assemblies > 0 && surfaces > 0 && heads > 0,
            "all parallelism degrees must be at least 1"
        );
        DashConfig {
            disk_stacks,
            arm_assemblies,
            surfaces,
            heads,
        }
    }

    /// The conventional drive, `D1 A1 S1 H1`.
    pub fn conventional() -> Self {
        DashConfig::new(1, 1, 1, 1)
    }

    /// The paper's HC-SD-SA(n) design, `D1 An S1 H1`.
    pub fn sa(n: u32) -> Self {
        DashConfig::new(1, n, 1, 1)
    }

    /// Degree of disk-stack parallelism (RAID-within-a-can).
    pub fn disk_stacks(&self) -> u32 {
        self.disk_stacks
    }

    /// Number of independent arm assemblies per stack.
    pub fn arm_assemblies(&self) -> u32 {
        self.arm_assemblies
    }

    /// Number of surfaces accessed concurrently per assembly.
    pub fn surfaces(&self) -> u32 {
        self.surfaces
    }

    /// Number of heads per arm per surface.
    pub fn heads(&self) -> u32 {
        self.heads
    }

    /// Maximum number of concurrent data-transfer paths this design can
    /// offer (the product of all degrees) — §4's figure-of-merit for a
    /// taxonomy point.
    pub fn max_transfer_paths(&self) -> u32 {
        self.disk_stacks * self.arm_assemblies * self.surfaces * self.heads
    }
}

impl Default for DashConfig {
    fn default() -> Self {
        Self::conventional()
    }
}

impl fmt::Display for DashConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "D{}A{}S{}H{}",
            self.disk_stacks, self.arm_assemblies, self.surfaces, self.heads
        )
    }
}

/// Error parsing a DASH label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDashError {
    input: String,
}

impl fmt::Display for ParseDashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid DASH label: {:?} (expected e.g. \"D1A2S1H1\")",
            self.input
        )
    }
}

impl std::error::Error for ParseDashError {}

impl FromStr for DashConfig {
    type Err = ParseDashError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseDashError {
            input: s.to_string(),
        };
        let upper = s.to_ascii_uppercase();
        let rest = upper.strip_prefix('D').ok_or_else(err)?;
        let (d, rest) = rest.split_once('A').ok_or_else(err)?;
        let (a, rest) = rest.split_once('S').ok_or_else(err)?;
        let (su, h) = rest.split_once('H').ok_or_else(err)?;
        let parse = |t: &str| t.parse::<u32>().ok().filter(|&v| v > 0).ok_or_else(err);
        Ok(DashConfig::new(parse(d)?, parse(a)?, parse(su)?, parse(h)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conventional_label() {
        assert_eq!(DashConfig::conventional().to_string(), "D1A1S1H1");
        assert_eq!(DashConfig::conventional().max_transfer_paths(), 1);
    }

    #[test]
    fn sa_family() {
        for n in 1..=4 {
            let c = DashConfig::sa(n);
            assert_eq!(c.arm_assemblies(), n);
            assert_eq!(c.to_string(), format!("D1A{n}S1H1"));
        }
    }

    #[test]
    fn figure1_examples() {
        // Figure 1(a): D1A2S1H1 — two transfer paths.
        let a = DashConfig::new(1, 2, 1, 1);
        assert_eq!(a.max_transfer_paths(), 2);
        // Figure 1(b): D1A2S1H2 — four transfer paths.
        let b = DashConfig::new(1, 2, 1, 2);
        assert_eq!(b.max_transfer_paths(), 4);
        assert_eq!(b.to_string(), "D1A2S1H2");
    }

    #[test]
    fn parse_roundtrip() {
        for label in ["D1A1S1H1", "D1A4S1H1", "D2A2S2H2"] {
            let c: DashConfig = label.parse().unwrap();
            assert_eq!(c.to_string(), label);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "D1A1S1", "A1D1S1H1", "D0A1S1H1", "D1A1S1Hx"] {
            assert!(bad.parse::<DashConfig>().is_err(), "{bad}");
        }
    }

    #[test]
    fn parse_case_insensitive() {
        let c: DashConfig = "d1a2s1h1".parse().unwrap();
        assert_eq!(c, DashConfig::sa(2));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_degree_panics() {
        DashConfig::new(1, 0, 1, 1);
    }
}
