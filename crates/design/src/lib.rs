//! Design, technology and netlist model for the Mr.TPL reproduction.
//!
//! This crate plays the role of the LEF/DEF + ISPD-contest input stack in the
//! original paper: it defines the [`Technology`] (layer stack, pitches,
//! spacings and the triple-patterning colour-spacing distance `Dcolor`), the
//! [`Design`] (die area, pins, nets, obstacles), route guides produced by the
//! global router ([`RouteGuides`]: per net, rectangles that each apply to an
//! inclusive span of layers), and the [`RoutingSolution`] data model shared
//! by every router and evaluator in the workspace.
//!
//! # Examples
//!
//! ```
//! use tpl_design::{DesignBuilder, Technology};
//! use tpl_geom::Rect;
//!
//! let tech = Technology::ispd_like(4);
//! let mut builder = DesignBuilder::new("toy", tech, Rect::from_coords(0, 0, 1000, 1000));
//! let a = builder.add_pin_shape("u1/a", 0, Rect::from_coords(10, 10, 30, 30));
//! let b = builder.add_pin_shape("u2/z", 0, Rect::from_coords(800, 800, 830, 830));
//! builder.add_net("n1", vec![a, b]);
//! let design = builder.build().unwrap();
//! assert_eq!(design.nets().len(), 1);
//! ```

#![warn(missing_docs)]

mod design;
mod error;
mod guide;
mod ids;
mod layer;
mod net;
mod obstacle;
mod pin;
mod route;

pub use crate::design::{Design, DesignBuilder, DesignStats};
pub use error::DesignError;
pub use guide::{GuideRegion, RouteGuides};
pub use ids::{LayerId, NetId, ObstacleId, PinId};
pub use layer::{Layer, Technology};
pub use net::Net;
pub use obstacle::Obstacle;
pub use pin::Pin;
pub use route::{RouteSegment, RoutedNet, RoutingSolution, ViaInstance};
