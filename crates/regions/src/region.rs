//! The fundamental [`Region`] type: a half-open range inside an address space.

use std::fmt;

/// Identifier of an address space (one per tracked allocation / data object).
///
/// The runtime assigns a fresh `SpaceId` to every shared data object (e.g. every
/// `SharedSlice` allocation). Regions from different spaces never overlap.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SpaceId(pub u64);

impl fmt::Display for SpaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A half-open byte range `[start, end)` within one address space.
///
/// Units are bytes by convention (the runtime converts element indices into byte offsets), but
/// nothing in this crate depends on the unit: any monotone integer coordinate works.
///
/// The empty region (`start == end`) is a valid value; all containers ignore empty regions.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Region {
    /// The address space this region belongs to.
    pub space: SpaceId,
    /// Inclusive start offset.
    pub start: usize,
    /// Exclusive end offset.
    pub end: usize,
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}, {})", self.space, self.start, self.end)
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self)
    }
}

impl Region {
    /// Creates a region. Panics if `start > end`.
    #[inline]
    pub fn new(space: SpaceId, start: usize, end: usize) -> Self {
        assert!(
            start <= end,
            "region start {start} must not exceed end {end}"
        );
        Region { space, start, end }
    }

    /// Length of the region in its coordinate unit.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if the region covers no coordinates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// `true` if both regions are in the same space and share at least one coordinate.
    #[inline]
    pub fn intersects(&self, other: &Region) -> bool {
        self.space == other.space && self.start < other.end && other.start < self.end
    }

    /// The overlapping part of two regions, if any.
    #[inline]
    pub fn intersection(&self, other: &Region) -> Option<Region> {
        if !self.intersects(other) {
            return None;
        }
        Some(Region {
            space: self.space,
            start: self.start.max(other.start),
            end: self.end.min(other.end),
        })
    }

    /// `true` if `other` is entirely contained in `self` (empty regions are contained anywhere in
    /// the same space).
    #[inline]
    pub fn contains_region(&self, other: &Region) -> bool {
        self.space == other.space
            && (other.is_empty() || (self.start <= other.start && other.end <= self.end))
    }

    /// `true` if the coordinate `point` lies inside the region.
    #[inline]
    pub fn contains_point(&self, point: usize) -> bool {
        self.start <= point && point < self.end
    }

    /// Subtracts `other` from `self`, producing the (zero to two) remaining pieces.
    pub fn subtract(&self, other: &Region) -> Vec<Region> {
        let mut out = Vec::new();
        self.subtract_each(other, |r| out.push(r));
        out
    }

    /// Subtracts `other` from `self`, visiting the (zero to two) remaining pieces without
    /// allocating — the hot-path variant of [`Region::subtract`].
    pub fn subtract_each(&self, other: &Region, mut f: impl FnMut(Region)) {
        if self.space != other.space || !self.intersects(other) {
            if !self.is_empty() {
                f(*self);
            }
            return;
        }
        if self.start < other.start {
            let piece = Region::new(self.space, self.start, other.start.min(self.end));
            if !piece.is_empty() {
                f(piece);
            }
        }
        if other.end < self.end {
            let piece = Region::new(self.space, other.end.max(self.start), self.end);
            if !piece.is_empty() {
                f(piece);
            }
        }
    }

    /// Merges two regions into one if they are adjacent or overlapping in the same space.
    pub fn merge(&self, other: &Region) -> Option<Region> {
        if self.space != other.space {
            return None;
        }
        if self.end < other.start || other.end < self.start {
            return None;
        }
        Some(Region::new(
            self.space,
            self.start.min(other.start),
            self.end.max(other.end),
        ))
    }

    /// Splits the region at `point`, returning the two halves. The first half is `[start, point)`
    /// and the second `[point, end)`; either may be empty if `point` lies outside the region.
    pub fn split_at(&self, point: usize) -> (Region, Region) {
        let p = point.clamp(self.start, self.end);
        (
            Region::new(self.space, self.start, p),
            Region::new(self.space, p, self.end),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(start: usize, end: usize) -> Region {
        Region::new(SpaceId(1), start, end)
    }

    #[test]
    fn basic_properties() {
        let a = r(10, 20);
        assert_eq!(a.len(), 10);
        assert!(!a.is_empty());
        assert!(r(5, 5).is_empty());
        assert!(a.contains_point(10));
        assert!(a.contains_point(19));
        assert!(!a.contains_point(20));
        assert!(!a.contains_point(9));
    }

    #[test]
    #[should_panic]
    fn inverted_region_panics() {
        let _ = r(10, 5);
    }

    #[test]
    fn intersection_rules() {
        assert_eq!(r(0, 10).intersection(&r(5, 15)), Some(r(5, 10)));
        assert_eq!(r(0, 10).intersection(&r(10, 15)), None);
        assert_eq!(r(0, 10).intersection(&r(2, 8)), Some(r(2, 8)));
        let other_space = Region::new(SpaceId(2), 0, 10);
        assert_eq!(r(0, 10).intersection(&other_space), None);
    }

    #[test]
    fn containment() {
        assert!(r(0, 10).contains_region(&r(2, 8)));
        assert!(r(0, 10).contains_region(&r(0, 10)));
        assert!(!r(0, 10).contains_region(&r(2, 11)));
        assert!(
            r(0, 10).contains_region(&r(4, 4)),
            "empty region is contained"
        );
        assert!(!r(0, 10).contains_region(&Region::new(SpaceId(9), 2, 3)));
    }

    #[test]
    fn subtraction() {
        assert_eq!(r(0, 10).subtract(&r(3, 6)), vec![r(0, 3), r(6, 10)]);
        assert_eq!(r(0, 10).subtract(&r(0, 10)), Vec::<Region>::new());
        assert_eq!(r(0, 10).subtract(&r(0, 4)), vec![r(4, 10)]);
        assert_eq!(r(0, 10).subtract(&r(6, 10)), vec![r(0, 6)]);
        assert_eq!(r(0, 10).subtract(&r(20, 30)), vec![r(0, 10)]);
        assert_eq!(
            r(0, 10).subtract(&Region::new(SpaceId(7), 0, 10)),
            vec![r(0, 10)]
        );
    }

    #[test]
    fn merge_adjacent_and_overlapping() {
        assert_eq!(r(0, 5).merge(&r(5, 10)), Some(r(0, 10)));
        assert_eq!(r(0, 5).merge(&r(3, 10)), Some(r(0, 10)));
        assert_eq!(r(0, 5).merge(&r(6, 10)), None);
        assert_eq!(r(0, 5).merge(&Region::new(SpaceId(2), 5, 10)), None);
    }

    #[test]
    fn split() {
        assert_eq!(r(0, 10).split_at(4), (r(0, 4), r(4, 10)));
        assert_eq!(r(0, 10).split_at(0), (r(0, 0), r(0, 10)));
        assert_eq!(r(0, 10).split_at(15), (r(0, 10), r(10, 10)));
    }
}
