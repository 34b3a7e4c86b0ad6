//! Correctness checks applied to every run. A failed check is returned as
//! a reason, never a panic: the run then counts as all failed.

use ubft::crypto::Digest;
use ubft::runtime::WallGroupReport;
use ubft::types::ClientId;

/// Checks one group of a threaded run:
///
/// * every replica's execution log is a prefix of the longest one;
/// * within each log, each client's sequence numbers strictly increase;
/// * the longest log holds at least every completed request.
pub fn check_group(g: usize, group: &WallGroupReport) -> Result<(), String> {
    let logs: Vec<&[(ClientId, u64)]> =
        group.replicas.iter().map(|r| r.executed.as_slice()).collect();
    check_logs(&logs, group.completed).map_err(|e| format!("group {g}: {e}"))
}

/// The log checks of [`check_group`], on bare logs.
pub fn check_logs(logs: &[&[(ClientId, u64)]], completed: u64) -> Result<(), String> {
    let longest = logs.iter().copied().max_by_key(|l| l.len()).unwrap_or_default();
    for (r, log) in logs.iter().enumerate() {
        if !longest.starts_with(log) {
            let at = log.iter().zip(longest).position(|(a, b)| a != b).unwrap_or(0);
            return Err(format!("replica {r}'s log is not a prefix of the longest (index {at})"));
        }
        let mut last: std::collections::HashMap<ClientId, u64> = Default::default();
        for &(c, seq) in log.iter() {
            if let Some(prev) = last.insert(c, seq) {
                if seq <= prev {
                    return Err(format!("replica {r}: client {} seq {seq} after {prev}", c.0));
                }
            }
        }
    }
    if (longest.len() as u64) < completed {
        return Err(format!("{completed} requests completed, longest log has {}", longest.len()));
    }
    Ok(())
}

/// Checks that the live replicas of a simulated group agree on the state
/// digest.
pub fn check_digests(g: usize, digests: &[Digest]) -> Result<(), String> {
    match digests.split_first() {
        Some((first, rest)) if rest.iter().any(|d| d != first) => {
            Err(format!("group {g}: live replicas' state digests differ"))
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(entries: &[(u32, u64)]) -> Vec<(ClientId, u64)> {
        entries.iter().map(|&(c, s)| (ClientId(c), s)).collect()
    }

    #[test]
    fn prefix_logs_pass() {
        let a = log(&[(0, 1), (1, 1), (0, 2)]);
        let b = log(&[(0, 1), (1, 1)]);
        assert_eq!(check_logs(&[&a, &b, &[]], 3), Ok(()));
    }

    #[test]
    fn a_non_prefix_log_is_rejected() {
        let a = log(&[(0, 1), (0, 2), (0, 3)]);
        let b = log(&[(0, 1), (0, 3)]);
        let err = check_logs(&[&a, &b, &a], 3).unwrap_err();
        assert!(err.contains("replica 1") && err.contains("not a prefix"), "{err}");
    }

    #[test]
    fn a_repeated_or_reordered_sequence_is_rejected() {
        let a = log(&[(0, 1), (0, 1)]);
        assert!(check_logs(&[&a], 2).unwrap_err().contains("seq 1 after 1"));
    }

    #[test]
    fn a_completed_request_missing_from_every_log_is_rejected() {
        let a = log(&[(0, 1)]);
        assert!(check_logs(&[&a, &a], 2).is_err());
    }

    #[test]
    fn diverging_digests_are_rejected() {
        let d = |b| Digest::from_bytes([b; 32]);
        assert!(check_digests(0, &[d(1), d(1)]).is_ok());
        assert!(check_digests(0, &[d(1), d(2)]).is_err());
    }
}
