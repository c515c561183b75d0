package dp_test

import (
	"fmt"

	"opinions/internal/dp"
)

// Release a visits-per-user histogram with ε-differential privacy. At
// scale the shape survives; tiny populations get real noise.
func Example() {
	mech := dp.New(1.0, [32]byte{1})
	histogram := map[int]int{1: 300, 2: 120, 3: 40}
	released := mech.Histogram(histogram)
	fmt.Println(released[1] > released[2] && released[2] > released[3])

	// Means over tiny populations are suppressed rather than leaked.
	_, ok := mech.Mean(5.0, 1, 0, 5)
	fmt.Println("n=1 released:", ok)
	// Output:
	// true
	// n=1 released: false
}
