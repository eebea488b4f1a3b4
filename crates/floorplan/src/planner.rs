//! The deterministic floorplanner: first-fit-decreasing over regions
//! with a skyline (bottom-left) packer inside each region.
//!
//! Footprints are sorted by area descending (original index breaking
//! ties, so the order is a pure function of the input sequence) and
//! offered to regions first-fit with *owner affinity*: regions already
//! hosting the footprint's owner first, then regions hosting nobody,
//! then the rest — all ascending by region index. Inside a region the
//! footprint is shaped into the squarest rectangle the region's height
//! admits and dropped at the lowest-then-leftmost position of that
//! region's skyline. A footprint no region can hold geometrically is
//! recorded as a placement failure and *assigned* (without geometry) to
//! its owner's lowest home region — or the lowest empty region, or the
//! least-loaded one — so every owner still gets a deterministic
//! residency set. The planner consumes no randomness: identical inputs
//! give identical [`Placement`]s on every run and host.

use crate::grid::FabricGrid;
use amdrel_finegrain::TemporalPartitioning;
use std::collections::BTreeMap;

/// One rectangle of configuration to place: the area of a temporal
/// partition, tagged with the owner (application / tenant index) whose
/// region residency it determines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Footprint {
    /// Owner tag grouping footprints (e.g. the profile index of the
    /// application whose configuration this partition belongs to).
    pub owner: usize,
    /// Logical configuration area, in the same abstract units as
    /// [`TemporalPartition::area`](amdrel_finegrain::TemporalPartition).
    pub area: u64,
}

impl Footprint {
    /// A footprint of `area` units owned by `owner`.
    pub fn new(owner: usize, area: u64) -> Footprint {
        Footprint { owner, area }
    }
}

/// The footprints of one [`TemporalPartitioning`], in partition order,
/// all tagged with `owner`.
pub fn footprints_of(partitioning: &TemporalPartitioning, owner: usize) -> Vec<Footprint> {
    partitioning
        .partition_areas()
        .map(|area| Footprint::new(owner, area))
        .collect()
}

/// One footprint geometrically placed on the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlacedRect {
    /// Index of the footprint in the input slice.
    pub footprint: usize,
    /// The footprint's owner tag.
    pub owner: usize,
    /// Index of the region holding the rectangle.
    pub region: usize,
    /// Left edge, in grid (not region-local) cells.
    pub x: u64,
    /// Bottom edge, in grid cells.
    pub y: u64,
    /// Rectangle width (cells).
    pub width: u64,
    /// Rectangle height (cells).
    pub height: u64,
    /// Logical footprint area (≤ `width × height`; the difference is
    /// internal fragmentation).
    pub area: u64,
}

impl PlacedRect {
    /// Cells the rectangle occupies (`width × height`).
    pub fn cells(&self) -> u64 {
        self.width * self.height
    }
}

/// Placement-quality metrics, all held as integer permille so the
/// struct stays `Eq`/`Hash` (objective vectors and memo keys need exact
/// comparison). The `f64` accessors return each metric in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FragmentationStats {
    internal_permille: u64,
    external_permille: u64,
    worst_region_permille: u64,
    placement_failures: u64,
}

impl FragmentationStats {
    /// Internal fragmentation, permille: cells wasted padding logical
    /// areas to rectangles, over all cells the placed rectangles claim.
    pub fn internal_permille(&self) -> u64 {
        self.internal_permille
    }

    /// External fragmentation, permille: `1 − largest free region /
    /// total free`, 0 when nothing is free or nothing was placed.
    pub fn external_permille(&self) -> u64 {
        self.external_permille
    }

    /// Occupancy of the fullest region, permille (clamped to 1000 when
    /// fallback assignment oversubscribes a region).
    pub fn worst_region_permille(&self) -> u64 {
        self.worst_region_permille
    }

    /// Footprints no region could hold geometrically (each fell back to
    /// a deterministic residency assignment).
    pub fn placement_failures(&self) -> u64 {
        self.placement_failures
    }

    /// The `fragmentation` objective value, permille:
    /// [`Self::external_permille`], saturated to 1000 whenever any
    /// footprint failed geometric placement. An overfull grid has no
    /// free space to fragment, which would otherwise score it as a
    /// *perfect* floorplan; for optimisation it is the worst one.
    pub fn fragmentation_permille(&self) -> u64 {
        if self.placement_failures > 0 {
            1000
        } else {
            self.external_permille
        }
    }

    /// [`Self::internal_permille`] in `[0, 1]`.
    pub fn internal(&self) -> f64 {
        self.internal_permille as f64 / 1000.0
    }

    /// [`Self::external_permille`] in `[0, 1]`.
    pub fn external(&self) -> f64 {
        self.external_permille as f64 / 1000.0
    }

    /// [`Self::worst_region_permille`] in `[0, 1]`.
    pub fn worst_region_occupancy(&self) -> f64 {
        self.worst_region_permille as f64 / 1000.0
    }
}

/// The result of placing a footprint set on a [`FabricGrid`]: the
/// geometric rectangles, per-region load, per-owner touched-region
/// sets, and the [`FragmentationStats`] summarising them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    rects: Vec<PlacedRect>,
    failed: Vec<usize>,
    region_used: Vec<u64>,
    region_areas: Vec<u64>,
    touched: BTreeMap<usize, Vec<usize>>,
    stats: FragmentationStats,
}

impl Placement {
    /// The geometrically placed rectangles, in placement order
    /// (area-descending).
    pub fn rects(&self) -> &[PlacedRect] {
        &self.rects
    }

    /// Input indices of footprints no region could hold, ascending.
    pub fn failures(&self) -> &[usize] {
        &self.failed
    }

    /// Per-region loads, indexed like the grid's regions: the cells each
    /// region's placed rectangles claim plus the logical areas assigned
    /// to it on fallback (may exceed the region's area then).
    pub fn region_loads(&self) -> &[u64] {
        &self.region_used
    }

    /// Areas of the grid's regions (copied so a `Placement` stands on
    /// its own).
    pub fn region_areas(&self) -> &[u64] {
        &self.region_areas
    }

    /// Sorted, duplicate-free indices of the regions `owner`'s
    /// footprints occupy — the regions a runtime must reprogram to make
    /// that owner resident. Empty for owners with no footprints.
    pub fn touched_regions(&self, owner: usize) -> &[usize] {
        self.touched.get(&owner).map_or(&[], Vec::as_slice)
    }

    /// Total cells claimed by placed rectangles (≤ the grid area).
    pub fn placed_cells(&self) -> u64 {
        self.rects.iter().map(PlacedRect::cells).sum()
    }

    /// The placement-quality summary.
    pub fn stats(&self) -> FragmentationStats {
        self.stats
    }
}

/// One skyline segment: the packing frontier is `y` over `[x, x+width)`
/// in region-local coordinates.
#[derive(Debug, Clone, Copy)]
struct Seg {
    x: u64,
    width: u64,
    y: u64,
}

/// The deterministic first-fit-decreasing skyline floorplanner.
///
/// # Examples
///
/// ```
/// use amdrel_floorplan::{FabricGrid, Floorplanner, Footprint};
///
/// let grid = FabricGrid::uniform(1050, 4);
/// let footprints = [Footprint::new(0, 200), Footprint::new(1, 150)];
/// let placement = Floorplanner.place(&grid, &footprints);
/// assert!(placement.failures().is_empty());
/// // The two tenants land in disjoint regions.
/// let a = placement.touched_regions(0);
/// let b = placement.touched_regions(1);
/// assert!(!a.is_empty() && a.iter().all(|r| !b.contains(r)));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Floorplanner;

impl Floorplanner {
    /// Place `footprints` on `grid` (see the module docs for the
    /// algorithm). Zero-area footprints occupy nothing and touch no
    /// region.
    pub fn place(&self, grid: &FabricGrid, footprints: &[Footprint]) -> Placement {
        let n_regions = grid.len();
        let mut order: Vec<usize> = (0..footprints.len())
            .filter(|&i| footprints[i].area > 0)
            .collect();
        order.sort_by(|&a, &b| footprints[b].area.cmp(&footprints[a].area).then(a.cmp(&b)));

        let mut skylines: Vec<Vec<Seg>> = grid
            .regions()
            .iter()
            .map(|r| {
                vec![Seg {
                    x: 0,
                    width: r.width(),
                    y: 0,
                }]
            })
            .collect();
        let mut region_used = vec![0u64; n_regions];
        let mut hosts: Vec<Vec<usize>> = vec![Vec::new(); n_regions];
        let mut touched: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut rects = Vec::with_capacity(order.len());
        let mut failed = Vec::new();

        for &idx in &order {
            let fp = &footprints[idx];
            let candidates = candidate_order(&hosts, fp.owner);
            let mut placed = false;
            for &r in &candidates {
                let region = grid.region(r);
                let Some((w, h)) = shape(fp.area, region.width(), region.height()) else {
                    continue;
                };
                if let Some((lx, ly)) = best_position(&skylines[r], w, h, region.height()) {
                    raise(&mut skylines[r], lx, w, ly + h);
                    rects.push(PlacedRect {
                        footprint: idx,
                        owner: fp.owner,
                        region: r,
                        x: region.x() + lx,
                        y: region.y() + ly,
                        width: w,
                        height: h,
                        area: fp.area,
                    });
                    occupy(
                        &mut region_used,
                        &mut hosts,
                        &mut touched,
                        r,
                        fp.owner,
                        w * h,
                    );
                    placed = true;
                    break;
                }
            }
            if !placed {
                // Fallback residency: the owner's lowest home region,
                // else the lowest empty one, else the least-loaded.
                let r = *candidates
                    .iter()
                    .find(|&&r| hosts[r].contains(&fp.owner) || hosts[r].is_empty())
                    .unwrap_or_else(|| {
                        candidates
                            .iter()
                            .min_by_key(|&&r| (region_used[r], r))
                            .expect("grids have at least one region")
                    });
                occupy(
                    &mut region_used,
                    &mut hosts,
                    &mut touched,
                    r,
                    fp.owner,
                    fp.area,
                );
                failed.push(idx);
            }
        }
        failed.sort_unstable();
        for owned in touched.values_mut() {
            owned.sort_unstable();
        }

        let region_areas: Vec<u64> = grid.regions().iter().map(|r| r.area()).collect();
        let claimed: u64 = rects.iter().map(PlacedRect::cells).sum();
        let pad: u64 = rects.iter().map(|r: &PlacedRect| r.cells() - r.area).sum();
        let internal_permille = (pad * 1000).checked_div(claimed).unwrap_or(0);

        let free: Vec<u64> = region_areas
            .iter()
            .zip(&region_used)
            .map(|(&a, &u)| a.saturating_sub(u))
            .collect();
        let total_free: u64 = free.iter().sum();
        let largest_free = free.iter().copied().max().unwrap_or(0);
        let untouched = region_used.iter().all(|&u| u == 0);
        let external_permille = if total_free == 0 || untouched {
            0
        } else {
            1000 - largest_free * 1000 / total_free
        };

        let worst_region_permille = region_areas
            .iter()
            .zip(&region_used)
            .map(|(&a, &u)| (u * 1000 / a).min(1000))
            .max()
            .unwrap_or(0);

        let stats = FragmentationStats {
            internal_permille,
            external_permille,
            worst_region_permille,
            placement_failures: failed.len() as u64,
        };
        Placement {
            rects,
            failed,
            region_used,
            region_areas,
            touched,
            stats,
        }
    }
}

/// Record `cells` of owner `o`'s configuration in region `r`.
fn occupy(
    region_used: &mut [u64],
    hosts: &mut [Vec<usize>],
    touched: &mut BTreeMap<usize, Vec<usize>>,
    r: usize,
    o: usize,
    cells: u64,
) {
    region_used[r] += cells;
    if !hosts[r].contains(&o) {
        hosts[r].push(o);
    }
    let owned = touched.entry(o).or_default();
    if !owned.contains(&r) {
        owned.push(r);
    }
}

/// First-fit order for `owner`: its home regions, then empty regions,
/// then the rest — each group ascending by index.
fn candidate_order(hosts: &[Vec<usize>], owner: usize) -> Vec<usize> {
    let mut cands = Vec::with_capacity(hosts.len());
    cands.extend((0..hosts.len()).filter(|&r| hosts[r].contains(&owner)));
    cands.extend((0..hosts.len()).filter(|&r| hosts[r].is_empty()));
    cands.extend((0..hosts.len()).filter(|&r| !hosts[r].is_empty() && !hosts[r].contains(&owner)));
    cands
}

/// The squarest `w × h` rectangle of at least `area` cells that a
/// `rw × rh` region admits, or `None` if the region is too small.
fn shape(area: u64, rw: u64, rh: u64) -> Option<(u64, u64)> {
    if area > rw * rh {
        return None;
    }
    let w = ceil_sqrt(area).max(area.div_ceil(rh)).min(rw);
    let h = area.div_ceil(w);
    (h <= rh).then_some((w, h))
}

/// The lowest-then-leftmost skyline position admitting a `w × h` rect
/// under the region ceiling `rh`, or `None`. Callers guarantee `w` fits
/// the region width.
fn best_position(skyline: &[Seg], w: u64, h: u64, rh: u64) -> Option<(u64, u64)> {
    let rw = skyline.iter().map(|s| s.x + s.width).max().unwrap_or(0);
    let mut best: Option<(u64, u64)> = None; // (y, x)
    for seg in skyline {
        let x = seg.x;
        if x + w > rw {
            continue;
        }
        let y = skyline
            .iter()
            .filter(|s| s.x < x + w && x < s.x + s.width)
            .map(|s| s.y)
            .max()
            .unwrap_or(0);
        if y + h > rh {
            continue;
        }
        if best.is_none() || (y, x) < best.unwrap() {
            best = Some((y, x));
        }
    }
    best.map(|(y, x)| (x, y))
}

/// Raise the skyline to `top` over `[x, x+w)`, merging equal-height
/// neighbours.
fn raise(skyline: &mut Vec<Seg>, x: u64, w: u64, top: u64) {
    let end = x + w;
    let mut out: Vec<Seg> = Vec::with_capacity(skyline.len() + 2);
    for seg in skyline.iter() {
        let (sx, se) = (seg.x, seg.x + seg.width);
        if se <= x || sx >= end {
            out.push(*seg);
            continue;
        }
        if sx < x {
            out.push(Seg {
                x: sx,
                width: x - sx,
                y: seg.y,
            });
        }
        if se > end {
            out.push(Seg {
                x: end,
                width: se - end,
                y: seg.y,
            });
        }
    }
    out.push(Seg {
        x,
        width: w,
        y: top,
    });
    out.sort_by_key(|s| s.x);
    let mut merged: Vec<Seg> = Vec::with_capacity(out.len());
    for seg in out {
        if let Some(last) = merged.last_mut() {
            if last.y == seg.y && last.x + last.width == seg.x {
                last.width += seg.width;
                continue;
            }
        }
        merged.push(seg);
    }
    *skyline = merged;
}

fn ceil_sqrt(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let mut x = n;
    let mut y = x.div_ceil(2);
    while y < x {
        x = y;
        y = (x + n / x) / 2;
    }
    if x * x < n {
        x + 1
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn place(grid: &FabricGrid, areas: &[(usize, u64)]) -> Placement {
        let fps: Vec<Footprint> = areas.iter().map(|&(o, a)| Footprint::new(o, a)).collect();
        Floorplanner.place(grid, &fps)
    }

    #[test]
    fn empty_input_places_nothing() {
        let grid = FabricGrid::uniform(1050, 4);
        let p = place(&grid, &[]);
        assert!(p.rects().is_empty());
        assert!(p.failures().is_empty());
        assert_eq!(p.stats(), FragmentationStats::default());
        assert_eq!(p.touched_regions(0), &[] as &[usize]);
    }

    #[test]
    fn zero_area_footprints_touch_nothing() {
        let grid = FabricGrid::uniform(1050, 4);
        let p = place(&grid, &[(0, 0), (1, 100)]);
        assert_eq!(p.rects().len(), 1);
        assert!(p.failures().is_empty());
        assert_eq!(p.touched_regions(0), &[] as &[usize]);
        assert!(!p.touched_regions(1).is_empty());
    }

    #[test]
    fn skyline_packs_one_region_tightly() {
        let grid = FabricGrid::full(100); // 10x10, one region
        let p = place(&grid, &[(0, 25), (0, 25), (0, 25), (0, 25)]);
        assert!(p.failures().is_empty());
        assert_eq!(p.placed_cells(), 100);
        assert_eq!(p.region_loads(), [100]);
        assert_eq!(p.touched_regions(0), &[0]);
        assert_eq!(p.stats().worst_region_permille(), 1000);
        assert_eq!(p.stats().internal_permille(), 0);
        assert_eq!(
            p.stats().external_permille(),
            0,
            "one region, one free block"
        );
    }

    #[test]
    fn rects_never_overlap_and_stay_inside() {
        let grid = FabricGrid::shaped(1024, 2, 2); // 32x32, 16x16 quadrants
        let p = place(&grid, &[(0, 100), (1, 64), (2, 49), (3, 36), (0, 100)]);
        assert!(p.failures().is_empty());
        for (i, a) in p.rects().iter().enumerate() {
            assert!(a.x + a.width <= grid.width() && a.y + a.height <= grid.height());
            let region = grid.region(a.region);
            assert_eq!(region.overlap_area(a.x, a.y, a.width, a.height), a.cells());
            for b in &p.rects()[i + 1..] {
                let disjoint = a.x + a.width <= b.x
                    || b.x + b.width <= a.x
                    || a.y + a.height <= b.y
                    || b.y + b.height <= a.y;
                assert!(disjoint, "{a:?} overlaps {b:?}");
            }
        }
        assert!(p.placed_cells() <= grid.area());
        let used: u64 = p.region_loads().iter().sum();
        assert_eq!(used, p.placed_cells());
    }

    #[test]
    fn placement_is_deterministic_and_ffd_ordered() {
        let grid = FabricGrid::shaped(2000, 2, 2);
        let fps = [(0, 333), (1, 333), (0, 500), (2, 40)];
        let a = place(&grid, &fps);
        let b = place(&grid, &fps);
        assert_eq!(a, b);
        // Placement order is area-descending with input-index ties.
        let order: Vec<usize> = a.rects().iter().map(|r| r.footprint).collect();
        assert_eq!(order, [2, 0, 1, 3]);
    }

    #[test]
    fn owners_prefer_their_home_region() {
        let grid = FabricGrid::shaped(1024, 2, 2);
        // Owner 0 places twice; both rects land in its first region even
        // though region 1 is empty when the second is placed.
        let p = place(&grid, &[(0, 64), (0, 49)]);
        assert!(p.failures().is_empty());
        assert_eq!(p.touched_regions(0).len(), 1);
    }

    #[test]
    fn disjoint_tenants_get_disjoint_regions_when_capacity_allows() {
        let grid = FabricGrid::shaped(1024, 2, 2);
        let p = place(&grid, &[(0, 200), (1, 200), (2, 200), (3, 200)]);
        assert!(p.failures().is_empty());
        for a in 0..4usize {
            assert_eq!(p.touched_regions(a).len(), 1, "tenant {a} stays home");
            for b in (a + 1)..4 {
                assert_ne!(
                    p.touched_regions(a),
                    p.touched_regions(b),
                    "tenants {a} and {b} share a region"
                );
            }
        }
    }

    #[test]
    fn oversized_footprints_fail_but_keep_a_sticky_residency() {
        let grid = FabricGrid::uniform(100, 2); // 10x10, bands of 5 rows
        let p = place(&grid, &[(7, 2_000), (7, 2_000), (3, 16)]);
        assert_eq!(p.failures(), &[0, 1]);
        assert_eq!(p.stats().placement_failures(), 2);
        // Both failed footprints pile onto owner 7's first region; the
        // placeable tenant gets the other one.
        assert_eq!(p.touched_regions(7), &[0]);
        assert_eq!(p.touched_regions(3), &[1]);
        assert_eq!(p.stats().worst_region_permille(), 1000);
        // Any geometric failure saturates the objective value: an
        // overfull grid must never look like a perfect floorplan.
        assert_eq!(p.stats().fragmentation_permille(), 1000);
    }

    #[test]
    fn single_region_has_no_external_fragmentation() {
        let grid = FabricGrid::full(1050);
        let p = place(&grid, &[(0, 100), (1, 200), (2, 50)]);
        assert_eq!(p.stats().external_permille(), 0);
        assert!(p.stats().worst_region_occupancy() > 0.0);
        // With no failures the objective is the external fragmentation.
        assert_eq!(p.stats().fragmentation_permille(), 0);
    }

    #[test]
    fn footprints_of_tags_every_partition() {
        use amdrel_cdfg::{Dfg, OpKind};
        use amdrel_finegrain::{temporal_partition, FpgaDevice};
        let mut dfg = Dfg::new("wide");
        for _ in 0..50 {
            dfg.add_op(OpKind::Add, 32); // 1500 units: 2 partitions at 1050
        }
        let parts = temporal_partition(&dfg, &FpgaDevice::new(1500)).unwrap();
        let fps = footprints_of(&parts, 9);
        assert_eq!(fps.len(), parts.len());
        assert!(fps.iter().all(|f| f.owner == 9));
        assert_eq!(fps.iter().map(|f| f.area).sum::<u64>(), parts.total_area());
    }
}
