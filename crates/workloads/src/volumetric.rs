//! Volumetric-map reconstruction from point samples.
//!
//! The forest-fire deployment's in-fog offload is "a reconstruction
//! kernel for a volumetric map based on point samples" (§5.2.1): each
//! node's scattered temperature/smoke readings are splatted into a 3-D
//! voxel grid with inverse-distance weighting, producing the field the
//! cloud would otherwise have to assemble from raw points.

use serde::{Deserialize, Serialize};

/// One scattered field sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PointSample {
    /// Sample position in meters.
    pub position: [f64; 3],
    /// Measured field value (e.g. °C).
    pub value: f64,
}

/// A dense voxel grid covering an axis-aligned region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VoxelGrid {
    origin: [f64; 3],
    voxel_size: f64,
    dims: [usize; 3],
    values: Vec<f64>,
    weights: Vec<f64>,
}

impl VoxelGrid {
    /// Creates an empty grid.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `voxel_size` is not positive.
    #[must_use]
    pub fn new(origin: [f64; 3], voxel_size: f64, dims: [usize; 3]) -> Self {
        assert!(voxel_size > 0.0, "voxel size must be positive");
        assert!(dims.iter().all(|&d| d > 0), "dimensions must be positive");
        let n = dims[0] * dims[1] * dims[2];
        VoxelGrid {
            origin,
            voxel_size,
            dims,
            values: vec![0.0; n],
            weights: vec![0.0; n],
        }
    }

    /// Grid dimensions (voxels per axis).
    #[must_use]
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Number of voxels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the grid has no voxels (never: construction forbids it).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn index(&self, ix: usize, iy: usize, iz: usize) -> usize {
        (iz * self.dims[1] + iy) * self.dims[0] + ix
    }

    /// The reconstructed value at a voxel (0 where no sample reached).
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "voxel-grid kernel; indices bounded by the grid dimensions it allocates"
    )]
    pub fn value_at(&self, ix: usize, iy: usize, iz: usize) -> f64 {
        let i = self.index(ix, iy, iz);
        if self.weights[i] > 0.0 {
            self.values[i] / self.weights[i]
        } else {
            0.0
        }
    }

    /// Total accumulated splat weight (diagnostic).
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Splats one sample into the grid with inverse-distance weighting
    /// over a `radius`-voxel neighbourhood.
    #[expect(
        clippy::indexing_slicing,
        reason = "voxel-grid kernel; indices bounded by the grid dimensions it allocates"
    )]
    pub fn splat(&mut self, sample: &PointSample, radius: usize) {
        let rel = [
            (sample.position[0] - self.origin[0]) / self.voxel_size,
            (sample.position[1] - self.origin[1]) / self.voxel_size,
            (sample.position[2] - self.origin[2]) / self.voxel_size,
        ];
        let center = [rel[0].floor(), rel[1].floor(), rel[2].floor()];
        let r = radius as isize;
        for dz in -r..=r {
            for dy in -r..=r {
                for dx in -r..=r {
                    let (ix, iy, iz) = (
                        center[0] as isize + dx,
                        center[1] as isize + dy,
                        center[2] as isize + dz,
                    );
                    if ix < 0
                        || iy < 0
                        || iz < 0
                        || ix >= self.dims[0] as isize
                        || iy >= self.dims[1] as isize
                        || iz >= self.dims[2] as isize
                    {
                        continue;
                    }
                    // Distance from the sample to the voxel center.
                    let d2 = (rel[0] - (ix as f64 + 0.5)).powi(2)
                        + (rel[1] - (iy as f64 + 0.5)).powi(2)
                        + (rel[2] - (iz as f64 + 0.5)).powi(2);
                    let w = 1.0 / (d2 + 0.25);
                    let i = self.index(ix as usize, iy as usize, iz as usize);
                    self.values[i] += w * sample.value;
                    self.weights[i] += w;
                }
            }
        }
    }

    /// Reconstructs a grid from a batch of samples (the fog task).
    #[must_use]
    pub fn reconstruct(
        origin: [f64; 3],
        voxel_size: f64,
        dims: [usize; 3],
        samples: &[PointSample],
        radius: usize,
    ) -> Self {
        let mut grid = VoxelGrid::new(origin, voxel_size, dims);
        for s in samples {
            grid.splat(s, radius);
        }
        grid
    }

    /// Voxels whose reconstructed value exceeds `threshold` — the fire
    /// alarm set the network would actually transmit.
    #[must_use]
    pub fn hotspots(&self, threshold: f64) -> Vec<[usize; 3]> {
        let mut out = Vec::new();
        for iz in 0..self.dims[2] {
            for iy in 0..self.dims[1] {
                for ix in 0..self.dims[0] {
                    if self.value_at(ix, iy, iz) > threshold {
                        out.push([ix, iy, iz]);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(x: f64, y: f64, z: f64, v: f64) -> PointSample {
        PointSample {
            position: [x, y, z],
            value: v,
        }
    }

    #[test]
    fn single_sample_dominates_its_voxel() {
        let grid =
            VoxelGrid::reconstruct([0.0; 3], 1.0, [8, 8, 8], &[sample(3.5, 3.5, 3.5, 42.0)], 1);
        assert!((grid.value_at(3, 3, 3) - 42.0).abs() < 1e-9);
        // Far corner untouched.
        assert_eq!(grid.value_at(7, 7, 7), 0.0);
    }

    #[test]
    fn reconstruction_interpolates_between_samples() {
        let grid = VoxelGrid::reconstruct(
            [0.0; 3],
            1.0,
            [16, 1, 1],
            &[sample(0.5, 0.5, 0.5, 0.0), sample(15.5, 0.5, 0.5, 100.0)],
            8,
        );
        let quarter = grid.value_at(4, 0, 0);
        let three_quarter = grid.value_at(12, 0, 0);
        assert!(quarter < 50.0, "{quarter}");
        assert!(three_quarter > 50.0, "{three_quarter}");
        // Monotone along the line.
        let values: Vec<f64> = (0..16).map(|i| grid.value_at(i, 0, 0)).collect();
        assert!(values.windows(2).all(|w| w[0] <= w[1] + 1e-9), "{values:?}");
    }

    #[test]
    fn constant_field_reconstructs_constant() {
        let samples: Vec<PointSample> = (0..20)
            .map(|i| sample(f64::from(i % 5) + 0.3, f64::from(i / 5) + 0.7, 0.5, 7.0))
            .collect();
        let grid = VoxelGrid::reconstruct([0.0; 3], 1.0, [5, 4, 1], &samples, 2);
        for iz in 0..1 {
            for iy in 0..4 {
                for ix in 0..5 {
                    let v = grid.value_at(ix, iy, iz);
                    assert!((v - 7.0).abs() < 1e-9, "({ix},{iy},{iz}) = {v}");
                }
            }
        }
    }

    #[test]
    fn hotspot_detection_finds_the_fire() {
        let mut samples = vec![sample(1.0, 1.0, 0.5, 20.0); 30];
        samples.push(sample(6.5, 6.5, 0.5, 400.0)); // the fire
        let grid = VoxelGrid::reconstruct([0.0; 3], 1.0, [8, 8, 1], &samples, 1);
        let hot = grid.hotspots(100.0);
        assert!(!hot.is_empty());
        assert!(hot.iter().all(|&[x, y, _]| x >= 5 && y >= 5), "{hot:?}");
    }

    #[test]
    fn out_of_bounds_samples_are_clipped() {
        let mut grid = VoxelGrid::new([0.0; 3], 1.0, [4, 4, 4]);
        grid.splat(&sample(-100.0, 50.0, 3.0, 9.0), 2);
        assert_eq!(grid.total_weight(), 0.0);
    }

    #[test]
    #[should_panic(expected = "voxel size must be positive")]
    fn rejects_bad_voxel_size() {
        let _ = VoxelGrid::new([0.0; 3], 0.0, [1, 1, 1]);
    }
}
