//! Basic 2D/3D geometry primitives shared across SketchQL.
//!
//! All coordinates are `f32`. 2D points live in *screen space* (pixels or a
//! normalized unit frame), 3D points live in the simulator's *world space*
//! (meters, ground plane is `z = 0`).

use serde::{Deserialize, Serialize};

/// A point (or vector) in 2D screen space.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point2 {
    /// Horizontal coordinate.
    pub x: f32,
    /// Vertical coordinate.
    pub y: f32,
}

impl Point2 {
    /// The origin / zero vector.
    pub const ZERO: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub fn new(x: f32, y: f32) -> Self {
        Point2 { x, y }
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(&self, other: &Point2) -> f32 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Squared Euclidean distance (avoids the sqrt when only ordering matters).
    #[inline]
    pub fn distance_sq(&self, other: &Point2) -> f32 {
        (self.x - other.x).powi(2) + (self.y - other.y).powi(2)
    }

    /// Vector length.
    #[inline]
    pub fn norm(&self) -> f32 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, other: &Point2) -> f32 {
        self.x * other.x + self.y * other.y
    }

    /// 2D cross product (z component of the 3D cross product).
    #[inline]
    pub fn cross(&self, other: &Point2) -> f32 {
        self.x * other.y - self.y * other.x
    }

    /// Linear interpolation between `self` (t=0) and `other` (t=1).
    #[inline]
    pub fn lerp(&self, other: &Point2, t: f32) -> Point2 {
        Point2::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Heading angle of this vector in radians, in `(-pi, pi]`.
    #[inline]
    pub fn angle(&self) -> f32 {
        self.y.atan2(self.x)
    }

    /// Returns the unit vector in the same direction, or zero if degenerate.
    pub fn normalized(&self) -> Point2 {
        let n = self.norm();
        if n <= f32::EPSILON {
            Point2::ZERO
        } else {
            Point2::new(self.x / n, self.y / n)
        }
    }

    /// Rotate this vector by `theta` radians counter-clockwise.
    pub fn rotated(&self, theta: f32) -> Point2 {
        let (s, c) = theta.sin_cos();
        Point2::new(self.x * c - self.y * s, self.x * s + self.y * c)
    }
}

impl std::ops::Add for Point2 {
    type Output = Point2;
    #[inline]
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl std::ops::Sub for Point2 {
    type Output = Point2;
    #[inline]
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl std::ops::Mul<f32> for Point2 {
    type Output = Point2;
    #[inline]
    fn mul(self, rhs: f32) -> Point2 {
        Point2::new(self.x * rhs, self.y * rhs)
    }
}

impl std::ops::Neg for Point2 {
    type Output = Point2;
    #[inline]
    fn neg(self) -> Point2 {
        Point2::new(-self.x, -self.y)
    }
}

/// A point (or vector) in 3D world space. `z` is "up".
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point3 {
    /// East coordinate.
    pub x: f32,
    /// North coordinate.
    pub y: f32,
    /// Up coordinate.
    pub z: f32,
}

impl Point3 {
    /// The origin / zero vector.
    pub const ZERO: Point3 = Point3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a point from its coordinates.
    #[inline]
    pub fn new(x: f32, y: f32, z: f32) -> Self {
        Point3 { x, y, z }
    }

    /// Point on the ground plane (`z = 0`).
    #[inline]
    pub fn ground(x: f32, y: f32) -> Self {
        Point3 { x, y, z: 0.0 }
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(&self, other: &Point3) -> f32 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2) + (self.z - other.z).powi(2))
            .sqrt()
    }

    /// Vector length.
    #[inline]
    pub fn norm(&self) -> f32 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, other: &Point3) -> f32 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    pub fn cross(&self, other: &Point3) -> Point3 {
        Point3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Returns the unit vector in the same direction, or zero if degenerate.
    pub fn normalized(&self) -> Point3 {
        let n = self.norm();
        if n <= f32::EPSILON {
            Point3::ZERO
        } else {
            Point3::new(self.x / n, self.y / n, self.z / n)
        }
    }
}

impl std::ops::Add for Point3 {
    type Output = Point3;
    #[inline]
    fn add(self, rhs: Point3) -> Point3 {
        Point3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl std::ops::Sub for Point3 {
    type Output = Point3;
    #[inline]
    fn sub(self, rhs: Point3) -> Point3 {
        Point3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl std::ops::Mul<f32> for Point3 {
    type Output = Point3;
    #[inline]
    fn mul(self, rhs: f32) -> Point3 {
        Point3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

/// Normalizes an angle into `(-pi, pi]`.
pub fn wrap_angle(mut a: f32) -> f32 {
    use std::f32::consts::PI;
    while a > PI {
        a -= 2.0 * PI;
    }
    while a <= -PI {
        a += 2.0 * PI;
    }
    a
}

/// Smallest absolute difference between two angles, in `[0, pi]`.
pub fn angle_diff(a: f32, b: f32) -> f32 {
    wrap_angle(a - b).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::{FRAC_PI_2, PI};

    #[test]
    fn point2_distance_and_norm() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(b.norm(), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
    }

    #[test]
    fn point2_lerp_endpoints_and_midpoint() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(3.0, 6.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.lerp(&b, 0.5), Point2::new(2.0, 4.0));
    }

    #[test]
    fn point2_rotation_quarter_turn() {
        let v = Point2::new(1.0, 0.0).rotated(FRAC_PI_2);
        assert!((v.x - 0.0).abs() < 1e-6);
        assert!((v.y - 1.0).abs() < 1e-6);
    }

    #[test]
    fn point2_cross_sign_encodes_turn_direction() {
        let forward = Point2::new(1.0, 0.0);
        let left = Point2::new(0.0, 1.0);
        assert!(forward.cross(&left) > 0.0);
        assert!(left.cross(&forward) < 0.0);
    }

    #[test]
    fn point2_normalized_handles_zero() {
        assert_eq!(Point2::ZERO.normalized(), Point2::ZERO);
        let v = Point2::new(0.0, 5.0).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn point3_cross_is_orthogonal() {
        let a = Point3::new(1.0, 0.0, 0.0);
        let b = Point3::new(0.0, 1.0, 0.0);
        let c = a.cross(&b);
        assert_eq!(c, Point3::new(0.0, 0.0, 1.0));
        assert_eq!(a.dot(&c), 0.0);
        assert_eq!(b.dot(&c), 0.0);
    }

    #[test]
    fn wrap_angle_into_range() {
        // The boundary value maps to +/- pi depending on f32 rounding.
        assert!((wrap_angle(3.0 * PI).abs() - PI).abs() < 1e-5);
        assert!((wrap_angle(-3.0 * PI).abs() - PI).abs() < 1e-5);
        assert!((wrap_angle(0.5) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn angle_diff_is_symmetric_and_bounded() {
        assert!((angle_diff(0.1, -0.1) - 0.2).abs() < 1e-6);
        assert!((angle_diff(PI - 0.05, -(PI - 0.05)) - 0.1).abs() < 1e-4);
    }
}
