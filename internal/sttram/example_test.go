package sttram_test

import (
	"fmt"

	"mobilecache/internal/cache"
	"mobilecache/internal/energy"
	"mobilecache/internal/sttram"
	"mobilecache/internal/trace"
)

// Example wires a refresh controller onto a short-retention array and
// shows a clean line expiring while a refreshed line survives.
func Example() {
	c, _ := cache.New(cache.Config{
		Name: "stt", SizeBytes: 4096, Ways: 4, BlockBytes: 64, Policy: cache.LRU,
	})
	meter := energy.NewMeter(energy.DefaultParams(energy.STTShort), 4096)
	const retention = 1000 // cycles
	ctrl, _ := sttram.NewController(c, meter, retention, sttram.DirtyOnly, nil)

	c.Access(0x40, true, trace.User, 0)  // dirty: DirtyOnly refreshes it
	c.Access(0x80, false, trace.User, 0) // clean: allowed to expire

	for now := uint64(0); now <= 5*retention; now += 100 {
		ctrl.Tick(now)
	}
	_, _, dirtyAlive := c.Probe(0x40)
	_, _, cleanAlive := c.Probe(0x80)
	fmt.Println("dirty line alive:", dirtyAlive)
	fmt.Println("clean line alive:", cleanAlive)
	fmt.Println("dirty data lost:", ctrl.Stats().DirtyExpiries > 0)
	// Output:
	// dirty line alive: true
	// clean line alive: false
	// dirty data lost: false
}

// ExampleRetentionFromStability shows the thermal-stability relation
// behind the multi-retention design space.
func ExampleRetentionFromStability() {
	for _, delta := range []float64{30, 40} {
		sec := sttram.RetentionFromStability(delta)
		fmt.Printf("delta=%.0f retention~1e%d s\n", delta, int(log10(sec)))
	}
	// Output:
	// delta=30 retention~1e4 s
	// delta=40 retention~1e8 s
}

func log10(x float64) float64 {
	n := 0.0
	for x >= 10 {
		x /= 10
		n++
	}
	for x < 1 {
		x *= 10
		n--
	}
	return n
}
