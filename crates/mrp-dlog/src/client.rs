//! The dLog append workload: appends (and optionally multi-appends)
//! across the configured logs, as a source of operations for the
//! simulator's closed-loop client.

use crate::command::{DLogCommand, LogId};
use crate::setup::DLogDeployment;
use bytes::Bytes;
use mrp_sim::client::Operation;
use mrp_sim::rng::Rng;

/// Appends of `append_bytes` (1 KB in the paper's Figures 5/6) to the
/// logs of `deployment` round-robin; out of 1000 operations,
/// `multi_append_per_mille` are multi-appends to all logs (0 disables
/// them). For `mrp_sim::ClosedLoopClient::new`.
pub fn appends(
    deployment: DLogDeployment,
    append_bytes: usize,
    multi_append_per_mille: u32,
) -> impl FnMut(&mut Rng) -> Operation {
    let payload = Bytes::from(vec![0xA5u8; append_bytes]);
    let logs: Vec<LogId> = deployment.group_of_log.keys().copied().collect();
    // A genuine engine addresses the destination logs directly; the
    // ring engine needs the common ring for multi-appends.
    let multi_possible = deployment.engine.genuine() || deployment.common_group.is_some();
    let mut round_robin = 0u64;
    move |rng| {
        let multi = multi_append_per_mille > 0
            && rng.below(1000) < u64::from(multi_append_per_mille)
            && multi_possible;
        let cmd = if multi {
            DLogCommand::MultiAppend {
                logs: logs.clone(),
                data: payload.clone(),
            }
        } else {
            round_robin += 1;
            DLogCommand::Append {
                log: logs[(round_robin % logs.len() as u64) as usize],
                data: payload.clone(),
            }
        };
        let groups = deployment.route(&cmd).expect("the deployment's own logs");
        let proposer = deployment.proposer_of[&groups[0]];
        Operation::to_one(proposer, groups, cmd.encode())
    }
}
