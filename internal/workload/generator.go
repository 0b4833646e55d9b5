package workload

import (
	"fmt"

	"mobilecache/internal/trace"
)

// Address-space layout of generated traces, mirroring a 64-bit mobile
// SoC: user allocations live in the low canonical half, kernel text and
// data in the high half. Keeping the halves disjoint means domain can
// always be re-derived from an address, which several tests exploit.
const (
	// UserBase is the base of generated user data addresses.
	UserBase uint64 = 0x0000_0000_1000_0000
	// UserCodeBase is the base of generated user instruction addresses.
	UserCodeBase uint64 = 0x0000_0000_0040_0000
	// KernelBase is the base of generated kernel data addresses.
	KernelBase uint64 = 0xffff_8000_0100_0000
	// KernelCodeBase is the base of generated kernel instruction addresses.
	KernelCodeBase uint64 = 0xffff_8000_0010_0000
	// BlockBytes is the cache-block granularity of generated locality.
	BlockBytes = 64
)

// DomainOf classifies a generated address back into its domain.
func DomainOf(addr uint64) trace.Domain {
	if addr >= 0xffff_0000_0000_0000 {
		return trace.Kernel
	}
	return trace.User
}

// Profile parameterizes one synthetic application. The fields fix
// exactly the stream statistics the paper's cache designs are
// sensitive to.
type Profile struct {
	// Name identifies the app (used in reports and experiment tables).
	Name string
	// Description is a one-line human summary.
	Description string

	// KernelShare is the target fraction of accesses issued from
	// kernel code. Interactive mobile apps average above 0.4.
	KernelShare float64

	// UserWorkingSet and KernelWorkingSet are the per-domain hot data
	// footprints in bytes.
	UserWorkingSet   uint64
	KernelWorkingSet uint64

	// UserZipf and KernelZipf are the zipfian skew of block popularity
	// within each working set (0 = uniform).
	UserZipf   float64
	KernelZipf float64

	// UserWriteRatio and KernelWriteRatio are the store fractions of
	// each domain's data accesses. Kernel streams are write-heavy
	// (buffer management, copy_to/from_user), which is what makes the
	// short-retention STT-RAM segment attractive.
	UserWriteRatio   float64
	KernelWriteRatio float64

	// UserStreamFrac and KernelStreamFrac are the fractions of data
	// accesses that walk sequentially through a streaming region
	// (media buffers, network payloads) rather than hitting the hot
	// set.
	UserStreamFrac   float64
	KernelStreamFrac float64

	// IfetchFrac is the fraction of accesses that are instruction
	// fetches (sampled from a small per-domain code footprint).
	IfetchFrac float64
	// UserCodeSet and KernelCodeSet are the code footprints in bytes.
	UserCodeSet   uint64
	KernelCodeSet uint64

	// UserBurstMean is the mean number of consecutive user accesses
	// between kernel entries (syscalls, interrupts). The kernel burst
	// length is derived from KernelShare so the share target is met in
	// expectation.
	UserBurstMean float64

	// GapMean is the mean count of non-memory instructions between
	// consecutive memory accesses; it sets the instruction/access
	// ratio seen by the timing model.
	GapMean float64

	// Phases is the number of macro phases; at each phase boundary the
	// user working set shifts to fresh addresses (new activity,
	// GC churn, page-ins) and scales its size (apps alternate between
	// demanding bursts and lighter stretches — the variability the
	// dynamic partition exploits), while the kernel set stays put.
	// Zero or one means a single stationary phase.
	Phases int
}

// phaseScales is the deterministic per-phase multiplier applied to the
// user working set: interactive apps alternate heavy and light phases.
var phaseScales = [...]float64{1.0, 0.45, 0.85, 0.5, 0.7}

// Validate reports a descriptive error for out-of-range parameters.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile needs a name")
	case p.KernelShare < 0 || p.KernelShare >= 1:
		return fmt.Errorf("workload %s: kernel share %g outside [0,1)", p.Name, p.KernelShare)
	case p.UserWorkingSet < BlockBytes:
		return fmt.Errorf("workload %s: user working set %d below one block", p.Name, p.UserWorkingSet)
	case p.KernelWorkingSet < BlockBytes:
		return fmt.Errorf("workload %s: kernel working set %d below one block", p.Name, p.KernelWorkingSet)
	case p.UserWriteRatio < 0 || p.UserWriteRatio > 1:
		return fmt.Errorf("workload %s: user write ratio %g outside [0,1]", p.Name, p.UserWriteRatio)
	case p.KernelWriteRatio < 0 || p.KernelWriteRatio > 1:
		return fmt.Errorf("workload %s: kernel write ratio %g outside [0,1]", p.Name, p.KernelWriteRatio)
	case p.UserStreamFrac < 0 || p.UserStreamFrac > 1:
		return fmt.Errorf("workload %s: user stream fraction %g outside [0,1]", p.Name, p.UserStreamFrac)
	case p.KernelStreamFrac < 0 || p.KernelStreamFrac > 1:
		return fmt.Errorf("workload %s: kernel stream fraction %g outside [0,1]", p.Name, p.KernelStreamFrac)
	case p.IfetchFrac < 0 || p.IfetchFrac > 1:
		return fmt.Errorf("workload %s: ifetch fraction %g outside [0,1]", p.Name, p.IfetchFrac)
	case p.UserBurstMean < 1:
		return fmt.Errorf("workload %s: user burst mean %g below 1", p.Name, p.UserBurstMean)
	case p.GapMean < 0:
		return fmt.Errorf("workload %s: negative gap mean %g", p.Name, p.GapMean)
	}
	return nil
}

// kernelBurstMean derives the kernel burst length that achieves the
// target kernel share given the user burst length.
func (p *Profile) kernelBurstMean() float64 {
	if p.KernelShare <= 0 {
		return 0
	}
	return p.UserBurstMean * p.KernelShare / (1 - p.KernelShare)
}

// Generator produces a deterministic access stream for one profile.
// It implements trace.Source and never ends; wrap it in a
// trace.LimitSource (or use Generate) for a finite trace.
//
// Every distribution constant (the geometric denominators, the zipf
// exponents) is computed when the generator or a phase is built, not
// per draw. The draws themselves keep their exact Log/Exp sequence:
// the stream is pinned bit for bit, so any further saving has to come
// from around that math, not from changing it.
type Generator struct {
	prof    Profile
	rng     *RNG
	length  uint64 // accesses per phase (0 = stationary)
	phase   int
	toPhase uint64 // accesses left before the next phase boundary
	inBurst trace.Domain
	left    int // accesses left in current burst

	userBurst, kernelBurst, gap geometric

	user   domainState
	kernel domainState
}

// domainState holds the per-domain address machinery.
type domainState struct {
	zipf       *Zipf
	dataBase   uint64
	codeBase   uint64
	codeBlocks int
	streamPos  uint64
	streamBase uint64
	pc         uint64
}

// NewGenerator builds a generator for prof seeded by seed. phaseLen is
// the number of accesses per macro phase when prof.Phases > 1 (see
// PhaseLen); 0 keeps the stream stationary.
func NewGenerator(prof Profile, seed uint64, phaseLen uint64) (*Generator, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		prof: prof, rng: NewRNG(seed), length: phaseLen, inBurst: trace.User,
		userBurst:   newGeometric(prof.UserBurstMean),
		kernelBurst: newGeometric(prof.kernelBurstMean()),
		gap:         newGeometric(prof.GapMean),
	}
	g.toPhase = g.phaseSpan()
	g.left = g.userBurst.Sample(g.rng)

	userBlocks := int(prof.UserWorkingSet / BlockBytes)
	kernelBlocks := int(prof.KernelWorkingSet / BlockBytes)
	g.user = domainState{
		zipf:       NewZipf(userBlocks, prof.UserZipf),
		dataBase:   UserBase,
		codeBase:   UserCodeBase,
		codeBlocks: maxInt(1, int(prof.UserCodeSet/BlockBytes)),
		streamBase: UserBase + prof.UserWorkingSet*4,
		pc:         UserCodeBase,
	}
	g.kernel = domainState{
		zipf:       NewZipf(kernelBlocks, prof.KernelZipf),
		dataBase:   KernelBase,
		codeBase:   KernelCodeBase,
		codeBlocks: maxInt(1, int(prof.KernelCodeSet/BlockBytes)),
		streamBase: KernelBase + prof.KernelWorkingSet*4,
		pc:         KernelCodeBase,
	}
	return g, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// phaseSpan is the countdown to the next phase boundary: one phase's
// accesses, or never for a stationary stream.
func (g *Generator) phaseSpan() uint64 {
	if g.length > 0 && g.prof.Phases > 1 {
		return g.length
	}
	return ^uint64(0)
}

// nextPhase crosses a phase boundary (phases cycle once the last one
// ends): it moves the user working set to fresh addresses and rescales
// it to the phase's demand level.
func (g *Generator) nextPhase() {
	g.toPhase = g.phaseSpan()
	if g.length == 0 || g.prof.Phases <= 1 {
		return
	}
	phase := (g.phase + 1) % g.prof.Phases
	g.phase = phase
	g.user.dataBase = UserBase + uint64(phase)*g.prof.UserWorkingSet*16
	g.user.streamBase = g.user.dataBase + g.prof.UserWorkingSet*4
	scale := phaseScales[phase%len(phaseScales)]
	blocks := int(float64(g.prof.UserWorkingSet/BlockBytes) * scale)
	if blocks < 1 {
		blocks = 1
	}
	g.user.zipf = NewZipf(blocks, g.prof.UserZipf)
}

// Profile returns the profile this generator was built from.
func (g *Generator) Profile() Profile { return g.prof }

// Next produces the next access. The stream is infinite; ok is always
// true.
func (g *Generator) Next() (trace.Access, bool) {
	// Burst machine: alternate user and kernel bursts.
	if g.left <= 0 {
		if g.inBurst == trace.User && g.prof.KernelShare > 0 {
			g.inBurst = trace.Kernel
			g.left = g.kernelBurst.Sample(g.rng)
		} else {
			g.inBurst = trace.User
			g.left = g.userBurst.Sample(g.rng)
		}
	}
	g.left--

	// Macro phase shift: a countdown to the next boundary, not a
	// divide per access.
	if g.toPhase == 0 {
		g.nextPhase()
	}
	g.toPhase--

	dom := g.inBurst
	ds := &g.user
	streamFrac, writeRatio := g.prof.UserStreamFrac, g.prof.UserWriteRatio
	if dom == trace.Kernel {
		ds = &g.kernel
		streamFrac, writeRatio = g.prof.KernelStreamFrac, g.prof.KernelWriteRatio
	}

	gap := uint32(g.gap.Sample(g.rng) - 1)

	// Advance a simple per-domain PC walk through the code footprint.
	ds.pc += 4
	if ds.pc >= ds.codeBase+uint64(ds.codeBlocks)*BlockBytes {
		ds.pc = ds.codeBase
	}
	if g.rng.Bool(0.05) { // occasional branch to a random code block
		ds.pc = ds.codeBase + uint64(g.rng.Intn(ds.codeBlocks))*BlockBytes
	}

	// The record is assembled from locals in the return statement.
	// Filled field by field, a returned trace.Access is copied back
	// through the stack with wide loads over narrow stores, which
	// stall store forwarding on every call.
	var addr uint64
	op := trace.Load
	switch {
	case g.rng.Bool(g.prof.IfetchFrac):
		op = trace.Ifetch
		addr = ds.pc
	case g.rng.Bool(streamFrac):
		// Streaming: sequential walk through a large region, wrapping
		// far beyond any cache capacity.
		addr = ds.streamBase + (ds.streamPos%(1<<24))*BlockBytes
		ds.streamPos++
		if g.rng.Bool(writeRatio) {
			op = trace.Store
		}
	default:
		// Hot-set access with zipfian popularity, random offset within
		// the block.
		block := ds.zipf.Sample(g.rng)
		addr = ds.dataBase + uint64(block)*BlockBytes + uint64(g.rng.Intn(BlockBytes/8)*8)
		if g.rng.Bool(writeRatio) {
			op = trace.Store
		}
	}
	return trace.Access{Addr: addr, PC: ds.pc, Gap: gap, Op: op, Domain: dom}, true
}

// PhaseLen derives the per-phase access count a full-trace run of n
// accesses uses: n split evenly over the profile's macro phases, zero
// (stationary) for single-phase profiles and for traces shorter than
// one access per phase. Generate, sim.RunWorkload and the trace store
// all take it from here, so cached traces replay identically to
// generator-driven runs.
func PhaseLen(p Profile, n int) uint64 {
	if p.Phases > 1 && n > 0 {
		return uint64(n / p.Phases)
	}
	return 0
}

// Generate materializes n accesses of prof, splitting the trace into
// prof.Phases equal macro phases (see PhaseLen).
func Generate(prof Profile, seed uint64, n int) ([]trace.Access, error) {
	g, err := NewGenerator(prof, seed, PhaseLen(prof, n))
	if err != nil {
		return nil, err
	}
	return trace.Collect(trace.NewLimitSource(g, n), n), nil
}

// PhasedSource plays several sources back to back, n accesses each.
// It models a usage session that moves between apps — the stimulus for
// the dynamic-partition adaptation experiment.
type PhasedSource struct {
	srcs    []trace.Source
	perSrc  int
	current int
	used    int
}

// NewPhasedSource plays each source for perSrc accesses in order.
func NewPhasedSource(perSrc int, srcs ...trace.Source) *PhasedSource {
	return &PhasedSource{srcs: srcs, perSrc: perSrc}
}

// Next yields from the current source, advancing when its quota or
// stream is exhausted.
func (p *PhasedSource) Next() (trace.Access, bool) {
	for p.current < len(p.srcs) {
		if p.used < p.perSrc {
			a, ok := p.srcs[p.current].Next()
			if ok {
				p.used++
				return a, true
			}
		}
		p.current++
		p.used = 0
	}
	return trace.Access{}, false
}
