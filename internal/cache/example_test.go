package cache_test

import (
	"fmt"

	"mobilecache/internal/cache"
	"mobilecache/internal/trace"
)

// Example demonstrates the basic access flow and the partitioning
// masks the paper's designs are built on.
func Example() {
	c, err := cache.New(cache.Config{
		Name: "L2", SizeBytes: 64 * 1024, Ways: 8, BlockBytes: 64, Policy: cache.LRU,
	})
	if err != nil {
		panic(err)
	}

	// Way-partition: user gets ways 0-5, kernel ways 6-7.
	c.SetDomainMask(trace.User, 0b00111111)
	c.SetDomainMask(trace.Kernel, 0b11000000)

	r := c.Access(0x1000, false, trace.User, 1)
	fmt.Println("first access hit:", r.Hit)
	r = c.Access(0x1000, true, trace.User, 2)
	fmt.Println("second access hit:", r.Hit)

	st := c.Stats()
	fmt.Printf("user accesses=%d hits=%d\n", st.Accesses[trace.User], st.Hits[trace.User])
	// Output:
	// first access hit: false
	// second access hit: true
	// user accesses=2 hits=1
}

// ExampleShadowTags shows the utility monitor behind the dynamic
// partition controller.
func ExampleShadowTags() {
	st := cache.NewShadowTagsSampled(64, 8, 64, 0, nil)
	// Touch two same-set blocks, then re-touch the first: it hits at
	// stack position 1 (one distinct block accessed in between).
	st.Access(0x0000)
	st.Access(0x4000) // 0x4000/64 = block 256 -> set 0 as well
	st.Access(0x0000)
	fmt.Println("misses with 8 ways:", st.MissesWith(8))
	fmt.Println("hits captured by 2 ways:", st.HitsAtOrBefore(2))
	// Output:
	// misses with 8 ways: 2
	// hits captured by 2 ways: 1
}
