//! # felim-workloads — the eight bulk-bitwise applications
//!
//! Section VI of the paper evaluates eight real-world, data-intensive
//! applications (following Ambit) on DRAM and 2T-nC FeRAM, each with a
//! 1 GB workload:
//!
//! | module | application | dominant primitives |
//! |---|---|---|
//! | [`crc8`] | CRC8 checksums (bit-sliced lanes) | XOR |
//! | [`xor_cipher`] | XOR stream cipher | XOR |
//! | [`setops`] | set union | OR |
//! | [`setops`] | set intersection | AND |
//! | [`setops`] | set difference | AND + NOT |
//! | [`masked_init`] | masked initialisation | AND/OR + NOT |
//! | [`bitmap_index`] | bitmap index query | AND/OR |
//! | [`bnn`] | binarized NN inference | XNOR + popcount |
//!
//! Every workload is implemented twice: once as a plain software
//! reference and once compiled to row-level [`felim_arch::BulkBackend`]
//! primitives. Execution *verifies the two bit-for-bit* — the simulator
//! is functional, not just an event counter. Verification mismatches and
//! backend faults surface as typed [`WorkloadError`]s, so fault-injection
//! campaigns ([`driver::run_fault_campaign`]) can distinguish detected
//! corruption from silent corruption.
//!
//! [`driver`] runs a workload on a scaled-down row count, checks the
//! result, and extrapolates primitive counts analytically to the paper's
//! 1 GB size (bulk-bitwise primitive counts are exactly linear in row
//! count), adding DRAM refresh for the extrapolated runtime.
//!
//! ## Quickstart
//!
//! ```
//! use felim_workloads::{driver::{run_workload, Tech}, xor_cipher::XorCipher};
//!
//! let result = run_workload(&XorCipher, Tech::Feram, 16, 1 << 20, 42).unwrap();
//! assert!(result.verified);
//! assert!(result.scaled.total_energy_nj() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap_index;
pub mod bitserial;
pub mod bnn;
pub mod crc8;
pub mod data;
pub mod driver;
pub mod masked_init;
pub mod query;
pub mod setops;
pub mod xor_cipher;

use felim_arch::{ArchError, BulkBackend};

/// Failure of a workload run.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// The backend reported a fault (bad address, uncorrectable write,
    /// spare exhaustion, ...).
    Arch(ArchError),
    /// The in-memory result disagreed with the software reference —
    /// detected data corruption.
    Verification {
        /// Which workload detected the mismatch.
        workload: &'static str,
        /// Human-readable mismatch description.
        detail: String,
    },
}

impl From<ArchError> for WorkloadError {
    fn from(e: ArchError) -> Self {
        WorkloadError::Arch(e)
    }
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Arch(e) => write!(f, "backend fault: {e}"),
            WorkloadError::Verification { workload, detail } => {
                write!(f, "{workload} verification failed: {detail}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkloadError::Arch(e) => Some(e),
            WorkloadError::Verification { .. } => None,
        }
    }
}

/// A bulk-bitwise application that can execute on any backend.
pub trait Workload: Send + Sync {
    /// Display name (as in Fig 6).
    fn name(&self) -> &'static str;

    /// Executes the workload over `data_rows` rows of deterministic
    /// synthetic data drawn from `seed`, verifying the in-memory result
    /// against the software reference.
    ///
    /// Returns the number of *input data rows* consumed — the quantity
    /// that scales linearly with workload size.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Verification`] if the in-memory computation
    /// disagrees with the software reference (under fault injection, a
    /// *detected* corruption; on a clean backend, a simulator bug);
    /// [`WorkloadError::Arch`] if the backend itself faults.
    fn execute(
        &self,
        backend: &mut dyn BulkBackend,
        data_rows: u64,
        seed: u64,
    ) -> Result<u64, WorkloadError>;
}

/// All eight paper workloads, in Fig 6 order.
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(crc8::Crc8),
        Box::new(xor_cipher::XorCipher),
        Box::new(setops::SetUnion),
        Box::new(setops::SetIntersection),
        Box::new(setops::SetDifference),
        Box::new(masked_init::MaskedInit),
        Box::new(bitmap_index::BitmapIndex),
        Box::new(bnn::BnnInference),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_eight_paper_workloads_are_present() {
        let names: Vec<&str> = all_workloads().iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec![
                "CRC8",
                "XOR Cipher",
                "Set Union",
                "Set Intersection",
                "Set Difference",
                "Masked Initialization",
                "Bitmap Index Query",
                "BNN Inference",
            ]
        );
    }

    #[test]
    fn workload_error_display_and_source() {
        let e = WorkloadError::Verification {
            workload: "CRC8",
            detail: "lane 3 mismatch".into(),
        };
        assert!(e.to_string().contains("CRC8"));
        assert!(e.to_string().contains("lane 3"));
        let e: WorkloadError = ArchError::SparesExhausted { row: 9 }.into();
        assert!(e.to_string().contains("backend fault"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
