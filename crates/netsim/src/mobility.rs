//! Node mobility models.
//!
//! The paper's scenario is "a local ad-hoc network [that] forms
//! spontaneously, as nodes move in range of each other" (§1). The standard
//! way to exercise that churn in simulation is the random-waypoint model:
//! each node repeatedly picks a uniform destination and speed, walks there,
//! pauses, and repeats. [`Mobility::Static`] covers fixed infrastructure
//! nodes (§1 allows mixing in a wired fixed set).

use rand::Rng;

use crate::geometry::{Area, Point};
use crate::time::SimDuration;

/// Per-node mobility behaviour.
#[derive(Debug, Clone, PartialEq)]
pub enum Mobility {
    /// The node never moves.
    Static,
    /// Random waypoint: walk to a uniform destination at a uniform speed
    /// from `[min_speed, max_speed]` m/s, pause, repeat.
    RandomWaypoint {
        /// Lower speed bound (m/s), > 0.
        min_speed: f64,
        /// Upper speed bound (m/s), ≥ `min_speed`.
        max_speed: f64,
        /// Pause at each waypoint.
        pause: SimDuration,
    },
}

/// Mutable walk state of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityState {
    model: Mobility,
    /// Current leg destination (meaningless for `Static`).
    target: Point,
    /// Current speed (m/s).
    speed: f64,
    /// Remaining pause time at a reached waypoint (µs).
    pause_left: u64,
}

impl MobilityState {
    /// Initialises the walk at `start`.
    pub fn new(model: Mobility, start: Point) -> Self {
        Self {
            model,
            target: start,
            speed: 0.0,
            pause_left: 0,
        }
    }

    /// The model this state follows.
    pub fn model(&self) -> &Mobility {
        &self.model
    }

    /// Advances the walk by `dt`, returning the node's new position.
    ///
    /// Waypoint selection consumes `rng`; a `Static` node never touches it,
    /// so adding fixed nodes does not perturb the random sequence of the
    /// mobile ones beyond their own draws.
    pub fn advance(
        &mut self,
        pos: Point,
        dt: SimDuration,
        area: &Area,
        rng: &mut impl Rng,
    ) -> Point {
        match self.model {
            Mobility::Static => pos,
            Mobility::RandomWaypoint {
                min_speed,
                max_speed,
                pause,
            } => {
                let mut remaining_us = dt.as_micros();
                let mut p = pos;
                while remaining_us > 0 {
                    if self.pause_left > 0 {
                        let consumed = self.pause_left.min(remaining_us);
                        self.pause_left -= consumed;
                        remaining_us -= consumed;
                        continue;
                    }
                    if p.distance(&self.target) == 0.0 {
                        // Pick the next leg.
                        self.target = area.sample(rng);
                        self.speed = if max_speed > min_speed {
                            rng.gen_range(min_speed..=max_speed)
                        } else {
                            min_speed
                        };
                        self.pause_left = pause.as_micros();
                        if p.distance(&self.target) == 0.0 {
                            // A one-point area: there is nowhere to walk,
                            // and re-picking would never consume time.
                            break;
                        }
                        continue;
                    }
                    let step_time_s = remaining_us as f64 / 1e6;
                    let step = self.speed * step_time_s;
                    let (np, reached) = p.step_towards(&self.target, step);
                    if reached {
                        // Consume only the time actually needed for the leg.
                        let needed_s = p.distance(&self.target) / self.speed.max(1e-9);
                        let needed_us = (needed_s * 1e6).ceil() as u64;
                        remaining_us = remaining_us.saturating_sub(needed_us.max(1));
                        p = np;
                    } else {
                        p = np;
                        remaining_us = 0;
                    }
                }
                area.clamp(p)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn area() -> Area {
        Area::new(100.0, 100.0)
    }

    #[test]
    fn static_node_never_moves() {
        let mut st = MobilityState::new(Mobility::Static, Point::new(5.0, 5.0));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = st.advance(
            Point::new(5.0, 5.0),
            SimDuration::secs(100),
            &area(),
            &mut rng,
        );
        assert_eq!(p, Point::new(5.0, 5.0));
    }

    #[test]
    fn waypoint_node_moves_and_stays_in_area() {
        let model = Mobility::RandomWaypoint {
            min_speed: 1.0,
            max_speed: 5.0,
            pause: SimDuration::ZERO,
        };
        let start = Point::new(50.0, 50.0);
        let mut st = MobilityState::new(model, start);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut p = start;
        let mut moved = false;
        for _ in 0..50 {
            let np = st.advance(p, SimDuration::secs(1), &area(), &mut rng);
            assert!(area().contains(&np));
            if np != p {
                moved = true;
            }
            p = np;
        }
        assert!(moved, "waypoint node should move within 50 s");
    }

    #[test]
    fn speed_bounds_limit_displacement() {
        let model = Mobility::RandomWaypoint {
            min_speed: 2.0,
            max_speed: 2.0,
            pause: SimDuration::ZERO,
        };
        let start = Point::new(50.0, 50.0);
        let mut st = MobilityState::new(model, start);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut p = start;
        for _ in 0..20 {
            let np = st.advance(p, SimDuration::secs(1), &area(), &mut rng);
            // At 2 m/s, one second moves at most 2 m (+ tiny rounding).
            assert!(np.distance(&p) <= 2.0 + 1e-6);
            p = np;
        }
    }

    #[test]
    fn pause_halts_progress() {
        let model = Mobility::RandomWaypoint {
            min_speed: 1000.0, // reaches any waypoint within one tick
            max_speed: 1000.0,
            pause: SimDuration::secs(3600),
        };
        let start = Point::new(0.0, 0.0);
        let mut st = MobilityState::new(model, start);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        // First advance picks a waypoint & immediately starts the pause
        // (pause is set when the leg is chosen and consumed after arrival).
        let p1 = st.advance(start, SimDuration::secs(1), &area(), &mut rng);
        let p2 = st.advance(p1, SimDuration::secs(1), &area(), &mut rng);
        // During the long pause the node must not take a *new* leg.
        assert_eq!(p1.distance(&p2), 0.0);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let model = Mobility::RandomWaypoint {
            min_speed: 1.0,
            max_speed: 5.0,
            pause: SimDuration::millis(100),
        };
        let run = |seed: u64| {
            let mut st = MobilityState::new(model.clone(), Point::new(10.0, 10.0));
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut p = Point::new(10.0, 10.0);
            for _ in 0..25 {
                p = st.advance(p, SimDuration::secs(1), &area(), &mut rng);
            }
            p
        };
        assert_eq!(run(7), run(7));
    }
}
