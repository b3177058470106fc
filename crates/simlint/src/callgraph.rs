//! Crate-local call graph with transitive property propagation.
//!
//! Resolution is name-based over the [`crate::ast::Outline`]s of one
//! crate's library files:
//!
//! - `self.m(...)` resolves to `m` in the caller's own impl;
//! - `T::m(...)` resolves to `m` in an impl of `T` (`Self` maps to the
//!   caller's owner);
//! - `field.m(...)` resolves through the declared type of `field` on
//!   the caller's owner struct — `self.cache.lookup(...)` edges to
//!   `SegmentedCache::lookup` because `cache: SegmentedCache`, while
//!   `self.slots.push(...)` edges nowhere because `Vec` has no
//!   in-crate impl (the *allocation* is still caught by the direct
//!   body scan);
//! - a receiver we can't type (a local, a chained call) resolves to
//!   nothing. That is an under-approximation, accepted so that a
//!   `.push()` on a std collection doesn't edge to every crate method
//!   named `push`.
//!
//! Cross-crate calls resolve to nothing (the callee isn't in the
//! outline), which matches the rule contract: `no-alloc-in-hot-path`
//! guards allocations *within the crate*; what a dependency allocates
//! is that crate's business, gated where its own hot annotations live.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::Outline;
use crate::flow::{calls, Call, CallKind};
use crate::lexer::Tok;

/// One function in the per-crate graph.
#[derive(Debug, Clone)]
pub struct GraphFn {
    /// Index of the file (into the slice handed to [`CallGraph::build`]).
    pub file: usize,
    /// Index into that file's `outline.fns`.
    pub idx: usize,
}

/// Name-indexed call graph over one crate's files.
#[derive(Debug)]
pub struct CallGraph<'a> {
    files: &'a [(&'a [Tok], &'a Outline)],
    /// All non-test fns, in (file, idx) order.
    pub fns: Vec<GraphFn>,
    /// fn name -> indices into `fns`.
    by_name: BTreeMap<&'a str, Vec<usize>>,
}

impl<'a> CallGraph<'a> {
    /// Indexes every non-test function of `files` (one crate's token
    /// streams and outlines, in deterministic file order).
    pub fn build(files: &'a [(&'a [Tok], &'a Outline)]) -> Self {
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (fi, (_, outline)) in files.iter().enumerate() {
            for (i, f) in outline.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                by_name.entry(f.name.as_str()).or_default().push(fns.len());
                fns.push(GraphFn { file: fi, idx: i });
            }
        }
        CallGraph {
            files,
            fns,
            by_name,
        }
    }

    /// The outline fn behind a graph node.
    pub fn item(&self, node: usize) -> &'a crate::ast::FnItem {
        let g = &self.fns[node];
        &self.files[g.file].1.fns[g.idx]
    }

    /// Call targets of `node`, resolved by name within the crate.
    fn callees(&self, node: usize) -> Vec<usize> {
        let g = &self.fns[node];
        let caller = self.item(node);
        let (toks, _) = self.files[g.file];
        let Some(body) = caller.body else {
            return Vec::new();
        };
        let mut out = BTreeSet::new();
        for call in calls(toks, (body.0, body.1 + 1)) {
            for target in self.resolve(&call, caller.owner.as_deref()) {
                out.insert(target);
            }
        }
        out.into_iter().collect()
    }

    /// Candidate graph nodes for one call site.
    fn resolve(&self, call: &Call, caller_owner: Option<&str>) -> Vec<usize> {
        let named: &[usize] = self
            .by_name
            .get(call.name.as_str())
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        match &call.kind {
            CallKind::Macro => Vec::new(),
            CallKind::Free => named
                .iter()
                .copied()
                .filter(|&n| self.item(n).owner.is_none())
                .collect(),
            CallKind::Qualified(q) => {
                let owner = if q == "Self" {
                    caller_owner
                } else {
                    Some(q.as_str())
                };
                named
                    .iter()
                    .copied()
                    .filter(|&n| self.item(n).owner.as_deref() == owner)
                    .collect()
            }
            CallKind::Method { receiver } => match receiver.as_deref() {
                Some("self") => named
                    .iter()
                    .copied()
                    .filter(|&n| {
                        self.item(n).owner.is_some()
                            && self.item(n).owner.as_deref() == caller_owner
                    })
                    .collect(),
                Some(field) => {
                    let Some(ty) = caller_owner.and_then(|o| self.field_ty(o, field)) else {
                        return Vec::new();
                    };
                    named
                        .iter()
                        .copied()
                        .filter(|&n| {
                            self.item(n)
                                .owner
                                .as_deref()
                                .is_some_and(|o| Outline::ty_mentions(ty, o))
                        })
                        .collect()
                }
                None => Vec::new(),
            },
        }
    }

    /// The declared type text of `strukt.field`, searched across every
    /// non-test struct of the crate.
    fn field_ty(&self, strukt: &str, field: &str) -> Option<&'a str> {
        for (_, outline) in self.files {
            for s in &outline.structs {
                if s.in_test || s.name != strukt {
                    continue;
                }
                for f in &s.fields {
                    if f.name == field {
                        return Some(f.ty.as_str());
                    }
                }
            }
        }
        None
    }

    /// Transitive closure from the `// simlint: hot` roots: node index
    /// -> display name of the root that reaches it (first in BFS order
    /// from roots sorted by name, so attribution is deterministic).
    pub fn hot_reachable(&self) -> BTreeMap<usize, String> {
        let mut roots: Vec<usize> = (0..self.fns.len()).filter(|&n| self.item(n).hot).collect();
        roots.sort_by_key(|&n| self.display_name(n));
        let mut reached: BTreeMap<usize, String> = BTreeMap::new();
        for root in roots {
            let root_name = self.display_name(root);
            let mut queue = vec![root];
            while let Some(n) = queue.pop() {
                if reached.contains_key(&n) {
                    continue;
                }
                reached.insert(n, root_name.clone());
                let mut next = self.callees(n);
                next.reverse(); // pop() order == ascending node order
                queue.extend(next);
            }
        }
        reached
    }

    /// `Owner::name` or `name` for diagnostics.
    pub fn display_name(&self, node: usize) -> String {
        let f = self.item(node);
        match &f.owner {
            Some(o) => format!("{o}::{}", f.name),
            None => f.name.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::parse::{brackets, outline};

    fn graph_of(srcs: &[&str]) -> (Vec<(Vec<Tok>, Outline)>, Vec<String>) {
        let parsed: Vec<(Vec<Tok>, Outline)> = srcs
            .iter()
            .map(|s| {
                let toks = tokenize(s);
                let br = brackets(&toks);
                let o = outline(&toks, &br);
                (toks, o)
            })
            .collect();
        let refs: Vec<(&[Tok], &Outline)> = parsed.iter().map(|(t, o)| (t.as_slice(), o)).collect();
        let g = CallGraph::build(&refs);
        let hot = g.hot_reachable();
        let mut names: Vec<String> = hot.keys().map(|&n| g.display_name(n)).collect();
        names.sort();
        (parsed, names)
    }

    #[test]
    fn hot_propagates_through_method_and_free_calls() {
        let (_, hot) = graph_of(&["impl Drive {\n\
                 // simlint: hot\n\
                 fn dispatch(&mut self) { self.scan(); helper(); }\n\
                 fn scan(&mut self) { self.cost(); }\n\
                 fn cost(&self) {}\n\
                 fn cold(&self) {}\n\
             }\n\
             fn helper() {}\n\
             fn unrelated() {}\n"]);
        assert_eq!(
            hot,
            vec!["Drive::cost", "Drive::dispatch", "Drive::scan", "helper"]
        );
    }

    #[test]
    fn self_call_prefers_own_impl_and_tests_are_excluded() {
        let (_, hot) = graph_of(&["impl A {\n\
                 // simlint: hot\n\
                 fn go(&self) { self.step(); }\n\
                 fn step(&self) {}\n\
             }\n\
             impl B { fn step(&self) {} }\n\
             #[cfg(test)]\nmod tests { fn step() { } }\n"]);
        assert_eq!(
            hot,
            vec!["A::go", "A::step"],
            "B::step must not be pulled in via self call"
        );
    }

    #[test]
    fn field_receiver_resolves_through_declared_type() {
        let (_, hot) = graph_of(
            &["struct Drive { cache: SegmentedCache, slots: Vec<u32> }\n\
             impl Drive {\n\
                 // simlint: hot\n\
                 fn dispatch(&mut self) { self.cache.lookup(1); self.slots.push(2); }\n\
             }\n\
             impl SegmentedCache { fn lookup(&self, _x: u32) {} }\n\
             impl Other { fn push(&mut self, _x: u32) {} }\n"],
        );
        // `cache: SegmentedCache` types the lookup edge; `slots: Vec`
        // has no in-crate impl, so Other::push is not pulled in.
        assert_eq!(hot, vec!["Drive::dispatch", "SegmentedCache::lookup"]);
    }

    #[test]
    fn cross_file_resolution() {
        let (_, hot) = graph_of(&[
            "// simlint: hot\nfn root() { other::leaf_q(); leaf_free(); }\n",
            "pub fn leaf_free() {}\nimpl other { }\nfn leaf_q() {}\n",
        ]);
        // `other::leaf_q()` is a qualified call whose owner has no fn
        // named leaf_q, so only the free call resolves.
        assert_eq!(hot, vec!["leaf_free", "root"]);
    }
}
