//! Generators and combinators.
//!
//! A [`Gen<T>`] is a pure function from a [`Source`] of choices to a
//! value. All primitive generators are *monotone in the choice stream*:
//! a smaller raw choice produces a simpler value (a smaller integer, a
//! float nearer the lower bound, a shorter vector), which is what makes
//! choice-stream shrinking effective.

use std::ops::RangeInclusive;
use std::rc::Rc;

use crate::source::Source;

/// A generator of values of type `T`.
#[derive(Clone)]
pub struct Gen<T> {
    f: Rc<dyn Fn(&mut Source) -> T>,
}

impl<T> std::fmt::Debug for Gen<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gen").finish_non_exhaustive()
    }
}

impl<T: 'static> Gen<T> {
    /// Wraps a raw generation function.
    pub fn new(f: impl Fn(&mut Source) -> T + 'static) -> Self {
        Gen { f: Rc::new(f) }
    }

    /// Generates one value from `src`.
    pub fn generate(&self, src: &mut Source) -> T {
        (self.f)(src)
    }

    /// Applies a pure function to every generated value.
    ///
    /// Shrinking still works through `map`: it operates on the
    /// underlying choices, not the mapped value.
    pub fn map<U: 'static>(self, g: impl Fn(T) -> U + 'static) -> Gen<U> {
        Gen::new(move |src| g((self.f)(src)))
    }

    /// Generator whose structure depends on an earlier drawn value.
    pub fn and_then<U: 'static>(self, g: impl Fn(T) -> Gen<U> + 'static) -> Gen<U> {
        Gen::new(move |src| g((self.f)(src)).generate(src))
    }
}

/// A constant generator (consumes no choices).
pub fn constant<T: Clone + 'static>(value: T) -> Gen<T> {
    Gen::new(move |_| value.clone())
}

/// Any `u64` (the raw choice itself).
pub fn u64_any() -> Gen<u64> {
    Gen::new(|src| src.next_choice())
}

/// Uniform `u64` in an inclusive range; shrinks toward `lo`.
///
/// # Panics
/// Panics if the range is empty.
pub fn u64_in(range: RangeInclusive<u64>) -> Gen<u64> {
    let (lo, hi) = (*range.start(), *range.end());
    assert!(lo <= hi, "empty range [{lo}, {hi}]");
    Gen::new(move |src| {
        if lo == 0 && hi == u64::MAX {
            return src.next_choice();
        }
        lo + src.next_choice() % (hi - lo + 1)
    })
}

/// Uniform `u32` in an inclusive range; shrinks toward `lo`.
pub fn u32_in(range: RangeInclusive<u32>) -> Gen<u32> {
    let (lo, hi) = (*range.start(), *range.end());
    u64_in(lo as u64..=hi as u64).map(|v| v as u32)
}

/// Uniform `usize` in an inclusive range; shrinks toward `lo`.
pub fn usize_in(range: RangeInclusive<usize>) -> Gen<usize> {
    let (lo, hi) = (*range.start(), *range.end());
    u64_in(lo as u64..=hi as u64).map(|v| v as usize)
}

/// Uniform `f64` in `[lo, hi)`; shrinks toward `lo`.
///
/// # Panics
/// Panics unless `lo < hi` and both are finite.
pub fn f64_in(lo: f64, hi: f64) -> Gen<f64> {
    assert!(
        lo < hi && lo.is_finite() && hi.is_finite(),
        "bad range [{lo}, {hi})"
    );
    Gen::new(move |src| {
        let frac = (src.next_choice() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + frac * (hi - lo)
    })
}

/// A boolean; shrinks toward `false`.
pub fn bool_any() -> Gen<bool> {
    Gen::new(|src| src.next_choice() % 2 == 1)
}

/// One of the listed values, uniformly; shrinks toward the first.
///
/// # Panics
/// Panics if `items` is empty.
pub fn one_of<T: Clone + 'static>(items: Vec<T>) -> Gen<T> {
    assert!(!items.is_empty(), "one_of needs at least one item");
    Gen::new(move |src| {
        let i = (src.next_choice() % items.len() as u64) as usize;
        items[i].clone()
    })
}

/// A vector of `len` range length with elements from `elem`; shrinks
/// toward shorter vectors of simpler elements.
pub fn vec_of<T: 'static>(elem: Gen<T>, len: RangeInclusive<usize>) -> Gen<Vec<T>> {
    let len_gen = usize_in(len);
    Gen::new(move |src| {
        let n = len_gen.generate(src);
        (0..n).map(|_| elem.generate(src)).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take<T: 'static>(g: &Gen<T>, seed: u64, n: usize) -> Vec<T> {
        let mut src = Source::from_seed(seed);
        (0..n).map(|_| g.generate(&mut src)).collect()
    }

    #[test]
    fn ranges_stay_in_bounds() {
        for v in take(&u64_in(10..=20), 1, 1000) {
            assert!((10..=20).contains(&v));
        }
        for v in take(&f64_in(-2.0, 3.0), 2, 1000) {
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn full_u64_range_is_identity_choice() {
        let mut a = Source::from_seed(5);
        let mut b = Source::from_seed(5);
        let g = u64_in(0..=u64::MAX);
        for _ in 0..100 {
            assert_eq!(g.generate(&mut a), b.next_choice());
        }
    }

    #[test]
    fn zero_choices_give_minimal_values() {
        let mut src = Source::replay(Vec::new());
        assert_eq!(u64_in(7..=99).generate(&mut src), 7);
        assert_eq!(f64_in(1.5, 8.0).generate(&mut src), 1.5);
        assert!(!bool_any().generate(&mut src));
        assert_eq!(one_of(vec!['a', 'b']).generate(&mut src), 'a');
        assert_eq!(
            vec_of(u64_any(), 0..=8).generate(&mut src),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn map_and_then_compose() {
        let g = u32_in(1..=4).and_then(|n| vec_of(u32_in(0..=9), n as usize..=n as usize));
        for v in take(&g, 3, 200) {
            assert!((1..=4).contains(&v.len()));
            assert!(v.iter().all(|&x| x <= 9));
        }
        let doubled = u32_in(0..=10).map(|x| x * 2);
        for v in take(&doubled, 4, 200) {
            assert!(v % 2 == 0 && v <= 20);
        }
    }

    #[test]
    fn vec_lengths_cover_range() {
        let g = vec_of(u64_any(), 0..=5);
        let lens: std::collections::BTreeSet<usize> =
            take(&g, 9, 500).into_iter().map(|v| v.len()).collect();
        assert_eq!(lens.len(), 6, "{lens:?}");
    }
}
