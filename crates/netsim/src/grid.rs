//! Spatial neighbour index for the broadcast/neighbour hot path.
//!
//! [`NeighbourIndex`] is a uniform grid over the simulation area whose
//! cell edge is at least the radio range, so every node within range of a
//! point lies in the 3×3 block of cells around it. Broadcast fan-out and
//! neighbour queries scan those cells instead of the whole node table —
//! O(local density) instead of O(N) per query at 256+ nodes.
//!
//! Rebuild discipline: positions only change on the simulator's mobility
//! tick, so the index is rebuilt exactly there (and extended in place by
//! `insert` when a node is added). Liveness is *not* tracked here — cells
//! hold every node regardless of up/down state and callers filter against
//! the node table, which keeps failure injection from invalidating the
//! index.

use crate::geometry::{Area, Point};
use crate::sim::NodeId;

/// Grids never grow beyond this many cells per axis: past a few thousand
/// cells the per-query constant dominates any candidate-set savings for
/// the population sizes the simulator targets.
const MAX_CELLS_PER_AXIS: usize = 64;

/// Uniform spatial grid answering "who could be within radio range of
/// this point" with a 3×3 cell scan.
#[derive(Debug, Clone)]
pub struct NeighbourIndex {
    cell_w: f64,
    cell_h: f64,
    cols: usize,
    rows: usize,
    cells: Vec<Vec<NodeId>>,
}

impl NeighbourIndex {
    /// Builds an empty index over `area` for a radio disc of `range`
    /// metres. A non-finite or non-positive range degrades to a single
    /// cell (every query scans everything — correct, just unindexed).
    pub fn new(area: &Area, range: f64) -> Self {
        let axis = |extent: f64| -> usize {
            if !range.is_finite() || range <= 0.0 || extent <= range {
                1
            } else {
                // floor keeps cell edge ≥ range, which is what makes the
                // 3×3 query block sufficient.
                ((extent / range).floor() as usize).clamp(1, MAX_CELLS_PER_AXIS)
            }
        };
        let cols = axis(area.width);
        let rows = axis(area.height);
        Self {
            cell_w: if cols > 1 {
                area.width / cols as f64
            } else {
                f64::INFINITY
            },
            cell_h: if rows > 1 {
                area.height / rows as f64
            } else {
                f64::INFINITY
            },
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
        }
    }

    fn cell_of(&self, p: Point) -> (usize, usize) {
        let clamp = |coord: f64, cell: f64, n: usize| -> usize {
            if cell.is_finite() {
                ((coord.max(0.0) / cell) as usize).min(n - 1)
            } else {
                0
            }
        };
        (
            clamp(p.x, self.cell_w, self.cols),
            clamp(p.y, self.cell_h, self.rows),
        )
    }

    /// Adds one node at `pos` without rebuilding (new nodes only —
    /// a *moved* node requires [`NeighbourIndex::rebuild`]).
    pub(crate) fn insert(&mut self, id: NodeId, pos: Point) {
        let (cx, cy) = self.cell_of(pos);
        self.cells[cy * self.cols + cx].push(id);
    }

    /// Re-bins every node from scratch. Called on each mobility tick;
    /// node ids are the positions' indexes.
    pub fn rebuild(&mut self, positions: impl IntoIterator<Item = Point>) {
        for c in &mut self.cells {
            c.clear();
        }
        for (i, pos) in positions.into_iter().enumerate() {
            self.insert(NodeId(i as u32), pos);
        }
    }

    /// Clears `out` and appends every node whose cell is within one cell
    /// of `pos`'s — a superset of the nodes within radio range (including
    /// the querying node itself). Callers filter by exact distance,
    /// liveness and identity, and sort if they need id order.
    pub fn candidates_into(&self, pos: Point, out: &mut Vec<NodeId>) {
        out.clear();
        let (cx, cy) = self.cell_of(pos);
        let x0 = cx.saturating_sub(1);
        let x1 = (cx + 1).min(self.cols - 1);
        let y0 = cy.saturating_sub(1);
        let y1 = (cy + 1).min(self.rows - 1);
        for gy in y0..=y1 {
            for gx in x0..=x1 {
                out.extend_from_slice(&self.cells[gy * self.cols + gx]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn positions(n: usize, area: &Area, seed: u64) -> Vec<Point> {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| area.sample(&mut rng)).collect()
    }

    /// Brute-force in-range set ⊆ grid candidate set, for every node.
    #[test]
    fn candidates_cover_the_in_range_set() {
        let area = Area::new(500.0, 300.0);
        let range = 50.0;
        let pts = positions(200, &area, 9);
        let mut index = NeighbourIndex::new(&area, range);
        index.rebuild(pts.iter().copied());
        let mut cand = Vec::new();
        for (i, p) in pts.iter().enumerate() {
            index.candidates_into(*p, &mut cand);
            for (j, q) in pts.iter().enumerate() {
                if p.distance(q) <= range {
                    assert!(
                        cand.contains(&NodeId(j as u32)),
                        "node {j} in range of {i} but missing from candidates"
                    );
                }
            }
        }
    }

    #[test]
    fn insert_matches_rebuild() {
        let area = Area::new(400.0, 400.0);
        let pts = positions(64, &area, 3);
        let mut incremental = NeighbourIndex::new(&area, 50.0);
        for (i, p) in pts.iter().enumerate() {
            incremental.insert(NodeId(i as u32), *p);
        }
        let mut rebuilt = NeighbourIndex::new(&area, 50.0);
        rebuilt.rebuild(pts.iter().copied());
        let mut a = Vec::new();
        let mut b = Vec::new();
        for p in &pts {
            incremental.candidates_into(*p, &mut a);
            rebuilt.candidates_into(*p, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn degenerate_ranges_fall_back_to_one_cell() {
        for range in [f64::INFINITY, 0.0, -1.0, f64::NAN] {
            let area = Area::new(100.0, 100.0);
            let mut index = NeighbourIndex::new(&area, range);
            index.rebuild([Point::new(0.0, 0.0), Point::new(99.0, 99.0)]);
            let mut cand = Vec::new();
            index.candidates_into(Point::new(50.0, 50.0), &mut cand);
            assert_eq!(cand, vec![NodeId(0), NodeId(1)]);
        }
    }

    #[test]
    fn range_larger_than_area_still_sees_everyone() {
        // 30 m square, 50 m range: the dense-preset shape.
        let area = Area::new(30.0, 30.0);
        let pts = positions(32, &area, 1);
        let mut index = NeighbourIndex::new(&area, 50.0);
        index.rebuild(pts.iter().copied());
        let mut cand = Vec::new();
        index.candidates_into(pts[0], &mut cand);
        assert_eq!(cand.len(), 32);
    }
}
