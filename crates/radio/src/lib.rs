//! # peas-radio — wireless substrate and energy model
//!
//! The radio layer for the PEAS (ICDCS 2003) reproduction, standing in for
//! the PARSEC radio model the authors used:
//!
//! * [`PowerProfile`] — the Berkeley-Motes-like per-mode power draws of
//!   Section 5.1 (tx 60 mW, rx 12 mW, idle 12 mW, sleep 0.03 mW);
//! * [`Battery`] / [`EnergyLedger`] — finite 54–60 J reserves with every
//!   joule attributed to a cause, so Table 1's overhead ratio is *measured*;
//! * [`packet`] — node ids, frame airtime (25 bytes at 20 kbps = 10 ms) and
//!   per-link reception info;
//! * [`PropagationModel`] — the pluggable per-link loss term, with
//!   [`Disc`], [`LogNormalShadowing`] and terrain-raster [`Terrain`]
//!   built-ins (and [`PropagationSpec`], their config-friendly recipe);
//! * [`Medium`] — the shared broadcast channel with receiver-side
//!   collisions, uniform loss, carrier sensing and half-duplex radios.
//!
//! # Example
//!
//! ```
//! use peas_des::rng::SimRng;
//! use peas_des::time::SimTime;
//! use peas_geom::{Field, Point};
//! use peas_radio::{Disc, Medium, NodeId, PowerProfile};
//!
//! let positions = vec![Point::new(1.0, 1.0), Point::new(3.0, 1.0)];
//! let mut medium = Medium::new(Field::new(10.0, 10.0), &positions, Disc, 20_000, 0.0);
//! let mut rng = SimRng::new(1);
//!
//! // Node 0 probes its 3 m neighborhood, as PEAS does.
//! let tx = medium.start_broadcast(SimTime::ZERO, NodeId(0), 3.0, 25, &mut rng);
//! let deliveries = medium.complete(tx.id);
//! assert_eq!(deliveries[0].receiver, NodeId(1));
//!
//! // Transmitting that frame cost 60 mW x 10 ms.
//! let energy = PowerProfile::motes().tx_energy(tx.airtime);
//! assert!((energy - 0.0006).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
mod lists;
pub mod medium;
pub mod packet;
pub mod power;
pub mod propagation;
pub mod reference;

pub use energy::{Battery, EnergyCause, EnergyLedger};
pub use medium::{Delivery, Medium, MediumStats, RxOutcome, Transmission, TxId, DEFAULT_GRID_CELL};
pub use packet::{airtime, NodeId, RxInfo, PAPER_BITRATE_BPS, PAPER_CONTROL_FRAME_BYTES};
pub use power::PowerProfile;
pub use propagation::{
    Disc, HeightMap, Link, LogNormalShadowing, PropagationModel, PropagationSpec, Terrain,
    TerrainSpec, DEFAULT_ANTENNA_HEIGHT, DEFAULT_DIFFRACTION, DEFAULT_PATH_LOSS_EXP,
    DEFAULT_SIGMA_DB, DEFAULT_WAVELENGTH,
};
