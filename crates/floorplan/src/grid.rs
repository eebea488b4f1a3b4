//! The 2D region model of the fine-grain fabric.
//!
//! The scalar area pool of [`FpgaDevice`](amdrel_finegrain::FpgaDevice)
//! (`usable_area()`) is quantised onto a `width × height` rectangle of
//! abstract area cells, partitioned into rectangular *reconfigurable
//! regions* — the unit a partial-reconfiguration controller can
//! reprogram independently. Every constructor is a pure function of its
//! integer inputs (integer square root, no floats, no RNG), so a grid
//! is bit-reproducible from `(usable_area, rows, cols)` alone.

use amdrel_finegrain::{FpgaConfigKey, FpgaDevice};

/// Integer square root (largest `r` with `r² ≤ n`), by Newton iteration.
fn isqrt(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let mut x = n;
    let mut y = x.div_ceil(2);
    while y < x {
        x = y;
        y = (x + n / x) / 2;
    }
    x
}

/// Smallest `r` with `r² ≥ n`.
fn ceil_sqrt(n: u64) -> u64 {
    let r = isqrt(n);
    if r * r < n {
        r + 1
    } else {
        r
    }
}

/// One rectangular reconfigurable region of a [`FabricGrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    index: usize,
    x: u64,
    y: u64,
    width: u64,
    height: u64,
}

impl Region {
    /// Position of this region in [`FabricGrid::regions`] (row-major).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Left edge, in grid cells.
    pub fn x(&self) -> u64 {
        self.x
    }

    /// Bottom edge, in grid cells.
    pub fn y(&self) -> u64 {
        self.y
    }

    /// Width in grid cells.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Height in grid cells.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Area in grid cells (`width × height`) — what a region-granular
    /// reconfiguration load pays to reprogram this region.
    pub fn area(&self) -> u64 {
        self.width * self.height
    }

    /// Cells of this region covered by the rectangle `[x, x+w) × [y, y+h)`.
    pub fn overlap_area(&self, x: u64, y: u64, w: u64, h: u64) -> u64 {
        let ox = (self.x + self.width)
            .min(x + w)
            .saturating_sub(self.x.max(x));
        let oy = (self.y + self.height)
            .min(y + h)
            .saturating_sub(self.y.max(y));
        ox * oy
    }
}

/// The fine-grain fabric as a 2D grid of reconfigurable regions.
///
/// # Examples
///
/// ```
/// use amdrel_floorplan::FabricGrid;
///
/// // The paper's small device: 1500 area units, 70% usable → 1050.
/// let grid = FabricGrid::uniform(1050, 4);
/// assert_eq!(grid.len(), 4);
/// assert!(grid.area() >= 1050); // quantised up to the next rectangle
/// assert_eq!(grid.regions().iter().map(|r| r.area()).sum::<u64>(), grid.area());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FabricGrid {
    width: u64,
    height: u64,
    rows: u32,
    cols: u32,
    regions: Vec<Region>,
}

impl FabricGrid {
    /// A single full-fabric region: the degenerate grid under which a
    /// partial-reconfiguration runtime admits no partial loads and must
    /// behave exactly like the scalar area pool.
    ///
    /// # Panics
    ///
    /// Panics if `usable_area` is zero.
    pub fn full(usable_area: u64) -> FabricGrid {
        FabricGrid::shaped(usable_area, 1, 1)
    }

    /// `regions` equal horizontal bands of the quantised fabric
    /// rectangle (partial-reconfiguration regions on column-oriented
    /// fabrics are full-width stripes).
    ///
    /// # Panics
    ///
    /// Panics if `usable_area` is zero, `regions` is zero, or the
    /// rectangle is too short to give every band at least one row.
    pub fn uniform(usable_area: u64, regions: usize) -> FabricGrid {
        FabricGrid::shaped(usable_area, regions, 1)
    }

    /// A `rows × cols` grid of regions over the quantised fabric
    /// rectangle, indexed row-major. Cell remainders go to the
    /// lower-indexed rows/columns, so the split is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `usable_area` is zero, either dimension is zero, or
    /// the rectangle cannot give every region at least one cell in each
    /// dimension.
    pub fn shaped(usable_area: u64, rows: usize, cols: usize) -> FabricGrid {
        FabricGrid::try_shaped(usable_area, rows, cols).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`FabricGrid::shaped`] for untrusted dimensions: the reason the
    /// grid cannot be built, instead of a panic.
    ///
    /// # Errors
    ///
    /// A one-line message under the conditions [`FabricGrid::shaped`]
    /// panics on.
    pub fn try_shaped(usable_area: u64, rows: usize, cols: usize) -> Result<FabricGrid, String> {
        if usable_area == 0 {
            return Err("usable area must be positive".to_owned());
        }
        if rows == 0 || cols == 0 {
            return Err("region grid dimensions must be positive".to_owned());
        }
        let width = ceil_sqrt(usable_area);
        let height = usable_area.div_ceil(width);
        if rows as u64 > height || cols as u64 > width {
            return Err(format!(
                "a {rows}x{cols} region grid needs at least {rows}x{cols} cells, \
                 but {usable_area} area units quantise to {width}x{height}"
            ));
        }
        let col_edges = split_edges(width, cols as u64);
        let row_edges = split_edges(height, rows as u64);
        let mut regions = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                regions.push(Region {
                    index: r * cols + c,
                    x: col_edges[c],
                    y: row_edges[r],
                    width: col_edges[c + 1] - col_edges[c],
                    height: row_edges[r + 1] - row_edges[r],
                });
            }
        }
        Ok(FabricGrid {
            width,
            height,
            rows: rows as u32,
            cols: cols as u32,
            regions,
        })
    }

    /// Grid width in cells.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Grid height in cells.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Total grid area in cells (`width × height ≥ usable_area`).
    pub fn area(&self) -> u64 {
        self.width * self.height
    }

    /// Region rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Region columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Always `false` — a grid has at least one region.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// All regions, row-major.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// One region by index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn region(&self, index: usize) -> &Region {
        &self.regions[index]
    }

    /// The placement-aware extension of
    /// [`FpgaDevice::config_key`](amdrel_finegrain::FpgaDevice::config_key):
    /// two `(device, grid)` pairs with equal keys price every
    /// region-granular reconfiguration identically.
    pub fn config_key(&self, device: &FpgaDevice) -> RegionConfigKey {
        RegionConfigKey {
            device: device.config_key(),
            width: self.width,
            height: self.height,
            rows: self.rows,
            cols: self.cols,
        }
    }
}

/// `parts + 1` monotone edges splitting `[0, extent)` into `parts`
/// near-equal intervals, remainder to the lower-indexed intervals.
fn split_edges(extent: u64, parts: u64) -> Vec<u64> {
    let base = extent / parts;
    let extra = extent % parts;
    let mut edges = Vec::with_capacity(parts as usize + 1);
    let mut at = 0;
    edges.push(0);
    for i in 0..parts {
        at += base + u64::from(i < extra);
        edges.push(at);
    }
    edges
}

/// Hashable identity of a device characterisation *plus* its region
/// grid geometry. See [`FabricGrid::config_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionConfigKey {
    device: FpgaConfigKey,
    width: u64,
    height: u64,
    rows: u32,
    cols: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantisation_covers_the_usable_area() {
        for area in [1, 2, 3, 7, 100, 1050, 3500, 123_457] {
            let grid = FabricGrid::full(area);
            assert!(grid.area() >= area, "area {area}");
            assert!((grid.width() - 1).pow(2) < area, "tight width for {area}");
            assert_eq!(grid.len(), 1);
            assert_eq!(grid.region(0).area(), grid.area());
        }
    }

    #[test]
    fn uniform_bands_tile_the_grid_exactly() {
        let grid = FabricGrid::uniform(1050, 4);
        assert_eq!((grid.width(), grid.height()), (33, 32));
        assert_eq!(grid.len(), 4);
        let total: u64 = grid.regions().iter().map(|r| r.area()).sum();
        assert_eq!(total, grid.area());
        // Bands are disjoint and stacked bottom-up.
        for pair in grid.regions().windows(2) {
            assert_eq!(pair[0].y() + pair[0].height(), pair[1].y());
            assert_eq!(pair[0].x(), 0);
            assert_eq!(pair[0].width(), grid.width());
        }
        // The 32 rows split 8/8/8/8.
        assert!(grid.regions().iter().all(|r| r.height() == 8));
    }

    #[test]
    fn shaped_grid_is_row_major_with_remainder_first() {
        let grid = FabricGrid::shaped(1050, 2, 3);
        assert_eq!(grid.len(), 6);
        assert_eq!((grid.rows(), grid.cols()), (2, 3));
        // Width 33 into 3 columns: 11 each; height 32 into 2 rows: 16 each.
        assert!(grid
            .regions()
            .iter()
            .all(|r| r.width() == 11 && r.height() == 16));
        assert_eq!(grid.region(4).index(), 4);
        assert_eq!((grid.region(4).x(), grid.region(4).y()), (11, 16));
        // Remainder goes to the first rows/columns.
        let odd = FabricGrid::shaped(1050, 3, 2);
        let heights: Vec<u64> = (0..3).map(|r| odd.region(r * 2).height()).collect();
        assert_eq!(heights, [11, 11, 10]);
        let widths: Vec<u64> = (0..2).map(|c| odd.region(c).width()).collect();
        assert_eq!(widths, [17, 16]);
    }

    #[test]
    fn regions_touching_reports_overlaps() {
        let grid = FabricGrid::uniform(1050, 4); // 33x32, bands of height 8
        let covered = |x, y, w, h| -> Vec<u64> {
            grid.regions()
                .iter()
                .map(|r| r.overlap_area(x, y, w, h))
                .collect()
        };
        assert_eq!(covered(0, 0, 5, 5), [25, 0, 0, 0]);
        assert_eq!(covered(0, 6, 5, 5), [5 * 2, 5 * 3, 0, 0]);
        assert_eq!(covered(0, 0, 33, 32), [33 * 8; 4]);
        assert_eq!(covered(0, 32, 5, 5), [0; 4]);
    }

    #[test]
    fn config_key_tracks_device_and_geometry() {
        let dev = FpgaDevice::new(1500);
        let grid = FabricGrid::uniform(dev.usable_area(), 4);
        assert_eq!(
            grid.config_key(&dev),
            FabricGrid::uniform(1050, 4).config_key(&dev)
        );
        assert_ne!(
            grid.config_key(&dev),
            FabricGrid::uniform(1050, 2).config_key(&dev)
        );
        assert_ne!(
            grid.config_key(&dev),
            grid.config_key(&FpgaDevice::new(5000))
        );
        assert_ne!(
            FabricGrid::shaped(1050, 4, 1).config_key(&dev),
            FabricGrid::shaped(1050, 1, 4).config_key(&dev)
        );
    }

    #[test]
    fn try_shaped_reports_oversubscription() {
        let e = FabricGrid::try_shaped(1050, 64, 1).unwrap_err();
        assert!(e.contains("quantise to 33x32"), "{e}");
        assert!(FabricGrid::try_shaped(1050, 32, 33).is_ok());
        assert!(FabricGrid::try_shaped(1050, 0, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "region grid needs")]
    fn oversubscribed_grid_panics() {
        let _ = FabricGrid::uniform(9, 4); // 3x3 rectangle, 4 bands
    }

    #[test]
    #[should_panic(expected = "usable area")]
    fn zero_area_panics() {
        let _ = FabricGrid::full(0);
    }
}
