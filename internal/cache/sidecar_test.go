package cache

import (
	"math/bits"
	"testing"

	"mobilecache/internal/trace"
)

// The tags and seqs arrays are the cache's slot state: a slot is valid
// exactly when its tag is not invalidTag, a tag match is a hit, and a
// line's block address is rebuilt from its set and tag. This property
// test drives a cache through randomized mixes of every mutation that
// writes them — accesses (read and write, both domains), way gating
// with flushes, targeted invalidations and expiry marks — and
// re-checks the invariants throughout, on every replacement policy:
//
//	tags[i] == invalidTag  ⇔  seqs[i] == 0
//	a powered valid line's BlockAddrAt probes back to its own (set, way)

// checkSlotState asserts the slot-state invariants over the whole array.
func checkSlotState(t *testing.T, c *Cache, when string) {
	t.Helper()
	for i := range c.lines {
		if (c.tags[i] == invalidTag) != (c.seqs[i] == 0) {
			t.Fatalf("%s: slot %d: tags = %#x, seqs = %d disagree on validity", when, i, c.tags[i], c.seqs[i])
		}
	}
	for set := 0; set < c.sets; set++ {
		for m := c.enabledMask; m != 0; m &= m - 1 {
			way := bits.TrailingZeros64(m)
			if c.tags[set*c.ways+way] == invalidTag {
				continue
			}
			addr := c.BlockAddrAt(set, way)
			if gs, gw, ok := c.Probe(addr); !ok || gs != set || gw != way {
				t.Fatalf("%s: BlockAddrAt(%d, %d) = %#x probes to (%d, %d, %v)", when, set, way, addr, gs, gw, ok)
			}
		}
	}
}

// TestSidecarsMirrorLines checks the slot-state invariants above under
// every replacement policy.
func TestSidecarsMirrorLines(t *testing.T) {
	for pol := PolicyKind(0); pol < numPolicies; pol++ {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := Config{Name: "prop-" + pol.String(), SizeBytes: 8 * 1024, Ways: 4, BlockBytes: 64, Policy: pol}
			c := mustNew(t, cfg)
			ways := uint64(1)<<uint(cfg.Ways) - 1

			state := uint64(0x6a09e667f3bcc908) ^ uint64(pol)<<32
			next := func() uint64 {
				state ^= state >> 12
				state ^= state << 25
				state ^= state >> 27
				return state * 0x2545f4914f6cdd1d
			}

			now := uint64(0)
			for step := 0; step < 30_000; step++ {
				now++
				r := next()
				switch r % 100 {
				case 0, 1, 2: // re-gate ways (flush what is about to power off)
					mask := (r >> 8) & ways
					if mask == 0 {
						mask = 1
					}
					c.FlushWays(^mask&ways, now, nil)
					c.SetEnabledMask(mask)
					// SetEnabledMask clips domain masks and can zero them;
					// re-assert both, as the partition controllers do.
					c.SetDomainMask(0, mask)
					c.SetDomainMask(1, mask)
					checkSlotState(t, c, "after gating")
				case 3, 4: // restore full power
					c.SetEnabledMask(ways)
					c.SetDomainMask(0, ways)
					c.SetDomainMask(1, ways)
				case 5, 6: // targeted invalidation
					set := int(r>>8) % c.sets
					way := int(r>>32) % cfg.Ways
					c.Invalidate(set, way, now, true)
					checkSlotState(t, c, "after invalidate")
				case 7: // retention expiry
					set := int(r>>8) % c.sets
					way := int(r>>32) % cfg.Ways
					c.MarkExpired(set, way, now)
				default: // access: bounded tag space so hits, misses and evictions all occur
					addr := (r >> 8) % (1 << 16) * 64
					dom := trace.Domain(r >> 40 & 1)
					c.Access(addr, r>>48&1 == 0, dom, now)
				}
				if step%997 == 0 {
					checkSlotState(t, c, "periodic")
				}
			}
			checkSlotState(t, c, "final")
			if validLines(c) == 0 {
				t.Fatal("walk never populated the cache")
			}
		})
	}
}
