package engine

import (
	"mobilecache/internal/invariant"
	"mobilecache/internal/sim"
)

// CheckAudit validates an audit-mode name ("off", "warn" or "strict")
// without applying it — the fail-fast half of the -audit flag.
func CheckAudit(name string) error {
	_, err := invariant.ParseMode(name)
	return err
}

// ApplyAudit parses an audit-mode name and installs it as the
// process-wide invariant-audit mode for every simulation (the audit
// runs inside sim.Run and sim.RunSampledTrace, so it covers direct
// runs as well as engine-driven ones). The returned restore function
// reinstates the previous mode.
func ApplyAudit(name string) (restore func(), err error) {
	m, err := invariant.ParseMode(name)
	if err != nil {
		return nil, err
	}
	return sim.SetAuditMode(m), nil
}
