//! 2-D geometry for node placement and mobility.

/// A position in metres on the simulation plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// X coordinate (m).
    pub x: f64,
    /// Y coordinate (m).
    pub y: f64,
}

impl Point {
    /// Builds a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to `other` (m).
    pub fn distance(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Moves `step` metres towards `target`, stopping exactly on it if the
    /// remaining distance is smaller. Returns the new position and whether
    /// the target was reached.
    pub fn step_towards(&self, target: &Point, step: f64) -> (Point, bool) {
        let d = self.distance(target);
        if d <= step || d == 0.0 {
            return (*target, true);
        }
        let t = step / d;
        (
            Point::new(
                self.x + (target.x - self.x) * t,
                self.y + (target.y - self.y) * t,
            ),
            false,
        )
    }
}

/// The rectangular simulation area `[0, width] × [0, height]` metres.
///
/// A side that is not finite and ≥ 0 (negative, NaN or infinite) reads
/// as 0: [`Area::clamp`], [`Area::contains`] and [`Area::sample`] treat
/// it as a degenerate side, so a hostile area never panics and never
/// places a node at a non-finite coordinate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Area {
    /// Width (m).
    pub width: f64,
    /// Height (m).
    pub height: f64,
}

impl Area {
    /// Builds an area.
    pub const fn new(width: f64, height: f64) -> Self {
        Self { width, height }
    }

    /// The usable sides `(width, height)`: each one that is not finite
    /// and ≥ 0 reads as 0.
    fn sides(&self) -> (f64, f64) {
        let side = |v: f64| if v.is_finite() && v >= 0.0 { v } else { 0.0 };
        (side(self.width), side(self.height))
    }

    /// Clamps a point into the area; a NaN coordinate clamps to 0.
    pub fn clamp(&self, p: Point) -> Point {
        let (w, h) = self.sides();
        let clamp = |v: f64, hi: f64| if v.is_nan() { 0.0 } else { v.clamp(0.0, hi) };
        Point::new(clamp(p.x, w), clamp(p.y, h))
    }

    /// True if the point lies inside (inclusive).
    pub fn contains(&self, p: &Point) -> bool {
        let (w, h) = self.sides();
        (0.0..=w).contains(&p.x) && (0.0..=h).contains(&p.y)
    }

    /// Uniformly random point inside the area.
    pub fn sample(&self, rng: &mut impl rand::Rng) -> Point {
        let (w, h) = self.sides();
        Point::new(rng.gen_range(0.0..=w), rng.gen_range(0.0..=h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn step_towards_converges() {
        let mut p = Point::new(0.0, 0.0);
        let target = Point::new(10.0, 0.0);
        let mut reached = false;
        for _ in 0..5 {
            let (np, r) = p.step_towards(&target, 3.0);
            p = np;
            reached = r;
            if reached {
                break;
            }
        }
        assert!(reached);
        assert_eq!(p, target);
    }

    #[test]
    fn step_towards_never_overshoots() {
        let p = Point::new(0.0, 0.0);
        let target = Point::new(1.0, 0.0);
        let (np, reached) = p.step_towards(&target, 100.0);
        assert!(reached);
        assert_eq!(np, target);
    }

    #[test]
    fn area_clamp_and_contains() {
        let a = Area::new(100.0, 50.0);
        assert!(a.contains(&Point::new(100.0, 50.0)));
        assert!(!a.contains(&Point::new(100.1, 0.0)));
        let c = a.clamp(Point::new(-5.0, 80.0));
        assert_eq!(c, Point::new(0.0, 50.0));
    }

    #[test]
    fn sample_stays_inside() {
        let a = Area::new(30.0, 30.0);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert!(a.contains(&a.sample(&mut rng)));
        }
    }
}
