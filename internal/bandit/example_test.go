package bandit_test

import (
	"fmt"

	"repro/internal/bandit"
)

// The optimistic ε-greedy policy the paper uses: arms are codec
// candidates, rewards are the optimization target. After enough pulls the
// policy concentrates on the best arm.
func ExampleEpsilonGreedy() {
	rewards := []float64{0.2, 0.9, 0.5} // arm 1 is best
	p := bandit.NewEpsilonGreedy(len(rewards), bandit.Config{
		Epsilon:  0.1,
		Optimism: 1, // forces each arm to be tried early
		Seed:     7,
	})
	for i := 0; i < 500; i++ {
		arm := p.Select(nil)
		p.Update(arm, rewards[arm])
	}
	counts := p.Counts()
	best := 0
	for a, c := range counts {
		if c > counts[best] {
			best = a
		}
	}
	fmt.Printf("most pulled arm: %d\n", best)
	// Output:
	// most pulled arm: 1
}

// The per-ratio-range pool behind offline lossy selection (paper §IV-C2):
// each compression-ratio range gets its own bandit instance.
func ExamplePool() {
	pool := bandit.NewPool(4, bandit.Config{Epsilon: 0.1}, nil, nil)
	high := pool.For(0.6)  // range (0.5, 1]
	low := pool.For(0.03)  // bottom range
	same := pool.For(0.55) // shares the (0.5, 1] instance
	fmt.Println(high == same, high == low)
	// Output:
	// true false
}
