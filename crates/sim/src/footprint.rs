//! Robot footprint models: planning state → OBB.
//!
//! A mobile robot's collision check tests its body's OBB at a candidate
//! state. Memoization requires the OBB to be a *pure function of the state*,
//! so the orientation policy must not depend on how the search reached the
//! state; the default policy orients the box toward the goal, which gives
//! realistic oriented (non-axis-aligned) footprints while staying
//! deterministic.

use racod_geom::{
    Cell2, Cell3, FootprintTemplate2, FootprintTemplate3, Obb2, Obb3, Rotation2, Rotation3, Vec2,
};

/// Orientation policy of a footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrientationPolicy {
    /// The box is axis-aligned everywhere.
    AxisAligned,
    /// The box's length axis points from the state toward the goal — a
    /// deterministic stand-in for heading along the travel direction.
    TowardGoal,
}

/// A footprint orientation reduced to its canonical discrete form.
///
/// Planning states and goals are grid cells, so a `TowardGoal` orientation
/// is fully determined by the integer direction `goal - state`. Reducing
/// that direction by its gcd canonicalizes it — `(2, 2)`, `(3, 3)` and
/// `(7, 7)` all orient the body along `(1, 1)` — which is what makes the
/// per-rotation template cache effective: one template serves every state
/// on the same heading ray.
///
/// [`Footprint2::obb_at`] derives its rotation *from this key*, so the OBB
/// path and the template path agree on the orientation by construction.
///
/// The `Ord` impl is an arbitrary but stable total order used to group
/// batched probes by orientation; it carries no geometric meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RotKey {
    /// Axis-aligned (also the degenerate `state == goal` case).
    Axis,
    /// Oriented along the gcd-reduced integer direction `(dx, dy)`.
    Dir {
        /// x component of the reduced direction.
        dx: i32,
        /// y component of the reduced direction.
        dy: i32,
    },
}

/// Binary (Stein) gcd: shift/subtract only. `rot_key` runs once per probe
/// on the batched hot path, where the division-based loop showed up as a
/// measurable fraction of a warm check.
fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    if a == 0 {
        return b as i64;
    }
    if b == 0 {
        return a as i64;
    }
    let k = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return (a << k) as i64;
        }
    }
}

impl RotKey {
    /// The key for a body oriented from `state` toward `goal` (2D).
    pub fn toward_2d(state: Cell2, goal: Cell2) -> RotKey {
        RotKey::from_direction(goal.x - state.x, goal.y - state.y)
    }

    /// The key for a body yawed from `state` toward `goal` (3D, yaw only).
    pub fn toward_3d(state: Cell3, goal: Cell3) -> RotKey {
        RotKey::from_direction(goal.x - state.x, goal.y - state.y)
    }

    /// Reduces an integer direction to its canonical key.
    pub fn from_direction(dx: i64, dy: i64) -> RotKey {
        if dx == 0 && dy == 0 {
            return RotKey::Axis;
        }
        let g = gcd(dx, dy);
        RotKey::Dir { dx: (dx / g) as i32, dy: (dy / g) as i32 }
    }

    /// The 2D rotation this key denotes.
    pub fn rotation2(self) -> Rotation2 {
        match self {
            RotKey::Axis => Rotation2::IDENTITY,
            RotKey::Dir { dx, dy } => match Vec2::new(dx as f32, dy as f32).normalized() {
                Some(u) => Rotation2::from_sin_cos(u.y, u.x),
                None => Rotation2::IDENTITY,
            },
        }
    }

    /// The 3D (yaw-only) rotation this key denotes.
    pub fn rotation3(self) -> Rotation3 {
        match self {
            RotKey::Axis => Rotation3::identity(),
            RotKey::Dir { dx, dy } => {
                let (dx, dy) = (dx as f32, dy as f32);
                let n = (dx * dx + dy * dy).sqrt();
                if n <= f32::EPSILON {
                    Rotation3::identity()
                } else {
                    Rotation3::from_sin_cos(0.0, 1.0, 0.0, 1.0, dy / n, dx / n)
                }
            }
        }
    }
}

/// A rectangular robot footprint in 2D, in grid-cell units.
///
/// # Example
///
/// ```
/// use racod_sim::Footprint2;
/// use racod_geom::Cell2;
///
/// let fp = Footprint2::car();
/// let obb = fp.obb_at(Cell2::new(50, 50), Cell2::new(90, 50));
/// assert!(obb.length() > obb.width());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Footprint2 {
    /// Body length in cells.
    pub length: f32,
    /// Body width in cells.
    pub width: f32,
    /// Orientation policy.
    pub policy: OrientationPolicy,
}

impl Footprint2 {
    /// A self-driving-car footprint: 4 m x 2 m at 0.25 m resolution
    /// (16 x 8 cells, 153 sample lattice points), oriented toward the goal.
    pub fn car() -> Self {
        Footprint2 { length: 16.0, width: 8.0, policy: OrientationPolicy::TowardGoal }
    }

    /// A small differential-drive robot: 3 x 3 cells, axis-aligned.
    pub fn small_robot() -> Self {
        Footprint2 { length: 3.0, width: 3.0, policy: OrientationPolicy::AxisAligned }
    }

    /// A point robot occupying a single cell.
    pub fn point() -> Self {
        Footprint2 { length: 0.0, width: 0.0, policy: OrientationPolicy::AxisAligned }
    }

    /// The canonical orientation key of the body at `state` toward `goal`.
    pub fn rot_key(&self, state: Cell2, goal: Cell2) -> RotKey {
        match self.policy {
            OrientationPolicy::AxisAligned => RotKey::Axis,
            OrientationPolicy::TowardGoal => RotKey::toward_2d(state, goal),
        }
    }

    /// The OBB of the robot body centered on `state`, oriented per policy
    /// with respect to `goal`.
    ///
    /// The rotation is derived from the gcd-reduced [`RotKey`], so every
    /// state on the same heading ray gets the bit-identical rotation.
    pub fn obb_at(&self, state: Cell2, goal: Cell2) -> Obb2 {
        let rot = self.rot_key(state, goal).rotation2();
        Obb2::centered(state.center(), self.length, self.width, rot)
    }

    /// Compiles the footprint's template for one orientation key.
    pub fn template(&self, key: RotKey) -> FootprintTemplate2 {
        FootprintTemplate2::for_box(self.length, self.width, key.rotation2())
    }
}

/// A cuboid robot footprint in 3D, in voxel units.
///
/// # Example
///
/// ```
/// use racod_sim::Footprint3;
/// use racod_geom::Cell3;
///
/// let fp = Footprint3::drone();
/// let obb = fp.obb_at(Cell3::new(10, 10, 10), Cell3::new(40, 10, 10));
/// assert!(obb.height() < obb.length());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Footprint3 {
    /// Body length in voxels.
    pub length: f32,
    /// Body width in voxels.
    pub width: f32,
    /// Body height in voxels.
    pub height: f32,
    /// Orientation policy (yaw only; drones stay level).
    pub policy: OrientationPolicy,
}

impl Footprint3 {
    /// A quadrotor footprint: ≈0.8 m x 0.8 m x 0.4 m at 0.2 m resolution
    /// (4 x 4 x 2 voxels), yawed toward the goal.
    pub fn drone() -> Self {
        Footprint3 { length: 4.0, width: 4.0, height: 2.0, policy: OrientationPolicy::TowardGoal }
    }

    /// A single-voxel point robot.
    pub fn point() -> Self {
        Footprint3 { length: 0.0, width: 0.0, height: 0.0, policy: OrientationPolicy::AxisAligned }
    }

    /// The canonical orientation key of the body at `state` toward `goal`.
    pub fn rot_key(&self, state: Cell3, goal: Cell3) -> RotKey {
        match self.policy {
            OrientationPolicy::AxisAligned => RotKey::Axis,
            OrientationPolicy::TowardGoal => RotKey::toward_3d(state, goal),
        }
    }

    /// The OBB of the robot body centered on `state`, yawed per policy
    /// toward `goal`.
    pub fn obb_at(&self, state: Cell3, goal: Cell3) -> Obb3 {
        let rot = self.rot_key(state, goal).rotation3();
        Obb3::centered(state.center(), self.length, self.width, self.height, rot)
    }

    /// Compiles the footprint's template for one orientation key.
    pub fn template(&self, key: RotKey) -> FootprintTemplate3 {
        FootprintTemplate3::for_box(self.length, self.width, self.height, key.rotation3())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_is_centered_on_state() {
        let fp = Footprint2::car();
        let s = Cell2::new(30, 40);
        let obb = fp.obb_at(s, Cell2::new(90, 40));
        assert!((obb.center() - s.center()).norm() < 1e-4);
    }

    #[test]
    fn orientation_points_toward_goal() {
        let fp = Footprint2::car();
        let obb = fp.obb_at(Cell2::new(10, 10), Cell2::new(10, 50));
        // Goal is due north → length axis along +y.
        let ax = obb.rotation().axis_x();
        assert!(ax.y > 0.99, "axis {ax:?}");
    }

    #[test]
    fn axis_aligned_ignores_goal() {
        let fp = Footprint2::small_robot();
        let a = fp.obb_at(Cell2::new(5, 5), Cell2::new(50, 5));
        let b = fp.obb_at(Cell2::new(5, 5), Cell2::new(5, 50));
        assert_eq!(a, b);
    }

    #[test]
    fn state_at_goal_degenerates_gracefully() {
        let fp = Footprint2::car();
        let obb = fp.obb_at(Cell2::new(7, 7), Cell2::new(7, 7));
        assert_eq!(obb.rotation(), Rotation2::IDENTITY);
    }

    #[test]
    fn footprint_is_pure_in_state() {
        let fp = Footprint2::car();
        let g = Cell2::new(100, 80);
        let a = fp.obb_at(Cell2::new(20, 20), g);
        let b = fp.obb_at(Cell2::new(20, 20), g);
        assert_eq!(a, b);
    }

    #[test]
    fn point_footprint_is_one_cell() {
        let fp = Footprint2::point();
        let obb = fp.obb_at(Cell2::new(3, 4), Cell2::new(9, 9));
        assert_eq!(obb.sample_cells(), vec![Cell2::new(3, 4)]);
    }

    #[test]
    fn drone_yaw_toward_goal() {
        let fp = Footprint3::drone();
        let obb = fp.obb_at(Cell3::new(10, 10, 5), Cell3::new(10, 40, 5));
        let ax = obb.rotation().axis_x();
        assert!(ax.y > 0.99, "axis {ax:?}");
        // Drone stays level: z axis unchanged.
        assert!(obb.rotation().axis_z().z > 0.99);
    }

    #[test]
    fn drone_centered_on_state() {
        let fp = Footprint3::drone();
        let s = Cell3::new(12, 13, 6);
        let obb = fp.obb_at(s, Cell3::new(40, 13, 6));
        assert!((obb.center() - s.center()).norm() < 1e-4);
    }
}
