//! Round and message accounting for simulated Congest executions.

use std::ops::AddAssign;

/// Cost of a (simulated) Congest-model execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CongestCost {
    /// Synchronous rounds.
    pub rounds: u64,
    /// Messages sent (each one `(node id, distance)` pair, i.e.
    /// `O(log n)` bits).
    pub messages: u64,
}

impl CongestCost {
    /// Zero cost.
    pub fn new() -> Self {
        CongestCost::default()
    }

    /// Cost of broadcasting `items` values to all nodes over a BFS tree
    /// of depth `diameter`: pipelining delivers one value per round after
    /// the `diameter`-round fill, and every tree edge forwards every item.
    pub fn broadcast(items: u64, diameter: u64, n: u64) -> Self {
        CongestCost {
            rounds: items + diameter,
            messages: items * n.saturating_sub(1),
        }
    }
}

impl AddAssign for CongestCost {
    fn add_assign(&mut self, rhs: CongestCost) {
        self.rounds += rhs.rounds;
        self.messages += rhs.messages;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_cost_is_pipelined() {
        let c = CongestCost::broadcast(10, 3, 5);
        assert_eq!(c.rounds, 13);
        assert_eq!(c.messages, 40);
    }

    #[test]
    fn accumulation() {
        let mut a = CongestCost {
            rounds: 2,
            messages: 7,
        };
        a += CongestCost {
            rounds: 1,
            messages: 3,
        };
        assert_eq!(
            a,
            CongestCost {
                rounds: 3,
                messages: 10
            }
        );
    }
}
