//! The all-pairs hop-distance table.

/// Sentinel meaning "unreachable" in a [`DistanceMatrix`].
pub const INFINITY: u32 = u32::MAX;

/// A dense `n × n` table of hop distances.
///
/// Produced both by the centralized oracle
/// ([`reference::apsp`](crate::reference::apsp)) and by the distributed
/// algorithms, so results can be compared directly. Unreachable pairs hold
/// [`INFINITY`] internally and read back as `None`.
///
/// # Examples
///
/// ```
/// use dapsp_graph::DistanceMatrix;
///
/// let mut d = DistanceMatrix::new(2);
/// d.set(0, 1, 5);
/// assert_eq!(d.get(0, 1), Some(5));
/// assert_eq!(d.get(1, 0), None); // not set: the matrix is not auto-symmetric
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<u32>,
}

impl DistanceMatrix {
    /// Creates an `n × n` matrix with every off-diagonal entry unreachable
    /// and the diagonal set to 0.
    pub fn new(n: usize) -> Self {
        let mut data = vec![INFINITY; n * n];
        for v in 0..n {
            data[v * n + v] = 0;
        }
        DistanceMatrix { n, data }
    }

    /// The `n × n` matrix whose row-major buffer is `data` (`data[u·n + v]`
    /// = the distance from `u` to `v`, [`INFINITY`] = unreachable): a
    /// producer that wrote its rows in place hands them over without a
    /// copy.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n²`.
    pub fn from_row_major(n: usize, data: Vec<u32>) -> Self {
        assert_eq!(data.len(), n * n, "a row-major n × n buffer has n² cells");
        DistanceMatrix { n, data }
    }

    /// The matrix dimension `n`.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The distance from `u` to `v`, or `None` if unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n` or `v >= n`.
    pub fn get(&self, u: u32, v: u32) -> Option<u32> {
        let d = self.data[self.index(u, v)];
        if d == INFINITY {
            None
        } else {
            Some(d)
        }
    }

    /// Sets the distance from `u` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n` or `v >= n`.
    pub fn set(&mut self, u: u32, v: u32, d: u32) {
        let i = self.index(u, v);
        self.data[i] = d;
    }

    /// The buffer index of `(u, v)`, range-checked per coordinate: `u·n + v`
    /// alone would let `v >= n` read or write a cell of row `u + 1`.
    fn index(&self, u: u32, v: u32) -> usize {
        let (u, v) = (u as usize, v as usize);
        assert!(u < self.n && v < self.n, "({u}, {v}) out of range");
        u * self.n + v
    }

    /// The row of distances from `u` (raw, with [`INFINITY`] sentinels).
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    pub fn row(&self, u: u32) -> &[u32] {
        &self.data[u as usize * self.n..(u as usize + 1) * self.n]
    }

    /// Overwrites the row of `u` with `dists` (using [`INFINITY`] sentinels).
    ///
    /// # Panics
    ///
    /// Panics if `u >= n` or `dists.len() != n`.
    pub fn set_row(&mut self, u: u32, dists: &[u32]) {
        assert_eq!(dists.len(), self.n, "row length must equal n");
        self.data[u as usize * self.n..(u as usize + 1) * self.n].copy_from_slice(dists);
    }

    /// The eccentricity of `u`: its maximum distance to any node, or `None`
    /// if some node is unreachable from `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    pub fn eccentricity(&self, u: u32) -> Option<u32> {
        let row = self.row(u);
        let max = row.iter().copied().max().unwrap_or(0);
        if max == INFINITY {
            None
        } else {
            Some(max)
        }
    }

    /// True if every entry is finite (the underlying graph is connected).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|&d| d != INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_has_zero_diagonal_and_infinite_rest() {
        let d = DistanceMatrix::new(3);
        for v in 0..3 {
            assert_eq!(d.get(v, v), Some(0));
        }
        assert_eq!(d.get(0, 1), None);
        assert!(!d.is_finite());
    }

    #[test]
    fn set_row_and_eccentricity() {
        let mut d = DistanceMatrix::new(3);
        d.set_row(0, &[0, 1, 2]);
        assert_eq!(d.eccentricity(0), Some(2));
        assert_eq!(d.eccentricity(1), None); // row 1 still has infinities
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn set_row_rejects_wrong_length() {
        let mut d = DistanceMatrix::new(3);
        d.set_row(0, &[0, 1]);
    }

    /// A column past the last one is out of range even where `u·n + v`
    /// still lands inside the buffer (on the next row's cell).
    #[test]
    fn out_of_range_coordinates_panic() {
        let probes: [fn(&mut DistanceMatrix); 3] = [
            |d| assert_eq!(d.get(0, 2), None),
            |d| d.set(0, 2, 7),
            |d| assert_eq!(d.get(2, 0), None),
        ];
        for probe in probes {
            let mut d = DistanceMatrix::new(2);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| probe(&mut d)));
            assert!(caught.is_err(), "an out-of-range pair must panic");
            assert_eq!(d, DistanceMatrix::new(2), "and write nothing");
        }
    }

    #[test]
    fn from_row_major_keeps_the_buffer() {
        let d = DistanceMatrix::from_row_major(2, vec![0, 3, INFINITY, 0]);
        assert_eq!((d.get(0, 1), d.get(1, 0)), (Some(3), None));
    }

    #[test]
    #[should_panic(expected = "n² cells")]
    fn from_row_major_rejects_a_short_buffer() {
        DistanceMatrix::from_row_major(2, vec![0; 3]);
    }

    #[test]
    fn zero_sized_matrix() {
        let d = DistanceMatrix::new(0);
        assert_eq!(d.num_nodes(), 0);
        assert!(d.is_finite());
    }
}
