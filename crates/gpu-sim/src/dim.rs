//! Grid/block dimensions and launch configurations.

use serde::{Deserialize, Serialize};

/// A CUDA-style three-component extent or index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Dim3 {
    /// Fastest-varying component.
    pub x: u32,
    /// Middle component.
    pub y: u32,
    /// Slowest-varying component.
    pub z: u32,
}

impl Dim3 {
    /// A 1-D extent `(x, 1, 1)`.
    #[must_use]
    pub const fn new_1d(x: u32) -> Self {
        Self { x, y: 1, z: 1 }
    }

    /// A 2-D extent `(x, y, 1)`.
    #[must_use]
    pub const fn new_2d(x: u32, y: u32) -> Self {
        Self { x, y, z: 1 }
    }

    /// A 3-D extent.
    #[must_use]
    pub const fn new(x: u32, y: u32, z: u32) -> Self {
        Self { x, y, z }
    }

    /// Total element count `x·y·z`.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }

    /// Linear index of `self` interpreted as an index within extent
    /// `extent` (x fastest, matching CUDA block enumeration).
    #[must_use]
    pub fn linear_in(&self, extent: Dim3) -> u64 {
        debug_assert!(self.x < extent.x && self.y < extent.y && self.z < extent.z);
        (self.z as u64 * extent.y as u64 + self.y as u64) * extent.x as u64 + self.x as u64
    }

    /// Iterates all indices in the extent in launch order
    /// (x fastest, then y, then z).
    pub fn iter_indices(self) -> impl Iterator<Item = Dim3> {
        (0..self.z).flat_map(move |z| {
            (0..self.y).flat_map(move |y| (0..self.x).map(move |x| Dim3 { x, y, z }))
        })
    }
}

impl From<(u32, u32)> for Dim3 {
    fn from((x, y): (u32, u32)) -> Self {
        Dim3::new_2d(x, y)
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Self {
        Dim3::new_1d(x)
    }
}

/// Grid and block extents of a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Number of thread blocks in each grid dimension.
    pub grid: Dim3,
    /// Number of threads in each block dimension.
    pub block: Dim3,
}

impl LaunchConfig {
    /// Convenience constructor.
    #[must_use]
    pub fn new(grid: impl Into<Dim3>, block: impl Into<Dim3>) -> Self {
        Self {
            grid: grid.into(),
            block: block.into(),
        }
    }

    /// Threads per block.
    #[must_use]
    pub fn threads_per_block(&self) -> u64 {
        self.block.count()
    }

    /// Warps per block (rounded up to whole warps, warp size 32).
    #[must_use]
    pub fn warps_per_block(&self) -> u64 {
        self.threads_per_block().div_ceil(32)
    }

    /// Total blocks in the grid.
    #[must_use]
    pub fn total_blocks(&self) -> u64 {
        self.grid.count()
    }

    /// Total threads in the launch.
    #[must_use]
    pub fn total_threads(&self) -> u64 {
        self.total_blocks() * self.threads_per_block()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        assert_eq!(Dim3::new(2, 3, 4).count(), 24);
        assert_eq!(Dim3::new_1d(7).count(), 7);
    }

    #[test]
    fn linear_index_x_fastest() {
        let extent = Dim3::new(4, 3, 2);
        assert_eq!(Dim3::new(0, 0, 0).linear_in(extent), 0);
        assert_eq!(Dim3::new(1, 0, 0).linear_in(extent), 1);
        assert_eq!(Dim3::new(0, 1, 0).linear_in(extent), 4);
        assert_eq!(Dim3::new(0, 0, 1).linear_in(extent), 12);
        assert_eq!(Dim3::new(3, 2, 1).linear_in(extent), 23);
    }

    #[test]
    fn iteration_matches_linear_order() {
        let extent = Dim3::new(3, 2, 2);
        let order: Vec<u64> = extent.iter_indices().map(|i| i.linear_in(extent)).collect();
        assert_eq!(order, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn launch_config_counts() {
        let lc = LaunchConfig::new((8u32, 4u32), (16u32, 16u32));
        assert_eq!(lc.threads_per_block(), 256);
        assert_eq!(lc.warps_per_block(), 8);
        assert_eq!(lc.total_blocks(), 32);
        assert_eq!(lc.total_threads(), 8192);
    }

    #[test]
    fn partial_warp_rounds_up() {
        let lc = LaunchConfig::new(1u32, 33u32);
        assert_eq!(lc.warps_per_block(), 2);
    }
}
