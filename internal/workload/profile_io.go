package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"mobilecache/internal/strictjson"
)

// profileJSON is the serialized form of a Profile; field names are
// snake_case and sizes are in KB for hand-editing comfort.
type profileJSON struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	KernelShare float64 `json:"kernel_share"`

	UserWorkingSetKB   int `json:"user_working_set_kb"`
	KernelWorkingSetKB int `json:"kernel_working_set_kb"`

	UserZipf   float64 `json:"user_zipf"`
	KernelZipf float64 `json:"kernel_zipf"`

	UserWriteRatio   float64 `json:"user_write_ratio"`
	KernelWriteRatio float64 `json:"kernel_write_ratio"`

	UserStreamFrac   float64 `json:"user_stream_frac"`
	KernelStreamFrac float64 `json:"kernel_stream_frac"`

	IfetchFrac    float64 `json:"ifetch_frac"`
	UserCodeKB    int     `json:"user_code_kb"`
	KernelCodeKB  int     `json:"kernel_code_kb"`
	UserBurstMean float64 `json:"user_burst_mean"`
	GapMean       float64 `json:"gap_mean"`
	Phases        int     `json:"phases"`
}

func toJSON(p Profile) profileJSON {
	return profileJSON{
		Name: p.Name, Description: p.Description,
		KernelShare:        p.KernelShare,
		UserWorkingSetKB:   int(p.UserWorkingSet / KB),
		KernelWorkingSetKB: int(p.KernelWorkingSet / KB),
		UserZipf:           p.UserZipf, KernelZipf: p.KernelZipf,
		UserWriteRatio: p.UserWriteRatio, KernelWriteRatio: p.KernelWriteRatio,
		UserStreamFrac: p.UserStreamFrac, KernelStreamFrac: p.KernelStreamFrac,
		IfetchFrac: p.IfetchFrac,
		UserCodeKB: int(p.UserCodeSet / KB), KernelCodeKB: int(p.KernelCodeSet / KB),
		UserBurstMean: p.UserBurstMean, GapMean: p.GapMean, Phases: p.Phases,
	}
}

func fromJSON(j profileJSON) Profile {
	return Profile{
		Name: j.Name, Description: j.Description,
		KernelShare:      j.KernelShare,
		UserWorkingSet:   uint64(j.UserWorkingSetKB) * KB,
		KernelWorkingSet: uint64(j.KernelWorkingSetKB) * KB,
		UserZipf:         j.UserZipf, KernelZipf: j.KernelZipf,
		UserWriteRatio: j.UserWriteRatio, KernelWriteRatio: j.KernelWriteRatio,
		UserStreamFrac: j.UserStreamFrac, KernelStreamFrac: j.KernelStreamFrac,
		IfetchFrac:  j.IfetchFrac,
		UserCodeSet: uint64(j.UserCodeKB) * KB, KernelCodeSet: uint64(j.KernelCodeKB) * KB,
		UserBurstMean: j.UserBurstMean, GapMean: j.GapMean, Phases: j.Phases,
	}
}

// SaveProfile writes p as indented JSON.
func SaveProfile(w io.Writer, p Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(toJSON(p))
}

// LoadProfile reads and validates a profile from JSON.
func LoadProfile(r io.Reader) (Profile, error) {
	var j profileJSON
	if err := strictjson.Decode(r, &j, "profile object"); err != nil {
		return Profile{}, fmt.Errorf("workload: %w", err)
	}
	p := fromJSON(j)
	if err := p.Validate(); err != nil {
		return Profile{}, err
	}
	return p, nil
}

// LoadProfileFile reads a profile from a JSON file.
func LoadProfileFile(path string) (Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return Profile{}, err
	}
	defer f.Close()
	return LoadProfile(f)
}
