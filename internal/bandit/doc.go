// Package bandit implements the multi-armed bandit policies AdaEdge uses
// for compression selection (paper §III-C): ε-greedy, optimistic
// ε-greedy, UCB1 and a gradient (softmax-preference) policy, with either
// sample-average or constant-step-size (nonstationary) value updates.
// Each arm corresponds to one compression candidate and the reward is the
// configured optimization target.
//
// Policy is the common interface: Select picks an arm (optionally under a
// feasibility mask), Update feeds back the observed reward, and
// Estimates/Counts expose copies of the learned state. Pool manages one
// policy instance per compression-ratio range — the paper's offline
// design (§IV-C2), where reward landscapes differ too much across ranges
// for a single instance.
//
// Every policy is deterministic for a fixed Config.Seed and internally
// mutex-guarded. Config.Trace attaches an obs.Ring: each Select and
// Update emits one structured event under the policy mutex, in decision
// order, with no wall-clock fields — so a seeded run reproduces the same
// event sequence (DESIGN.md §9). Config.Name labels the events' Source
// (e.g. "bandit.online.lossy"); Pool appends the ratio-range index.
package bandit
