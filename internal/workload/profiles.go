package workload

import "fmt"

// KB is the byte-size helper for profile literals.
const KB uint64 = 1024

// Profiles returns the ten interactive-app profiles used throughout the
// experiments. They stand in for the Android applications the paper
// traced (web browsing, email, maps, casual games, social feeds, video,
// document reading, music, office editing, and the home screen).
// Parameters were chosen so the motivation statistics land where the
// paper reports them: kernel L2-access shares averaging above 40%,
// write-heavy short-lived kernel blocks, longer-lived user blocks, and
// hot footprints that pressure a 1MB shared L2 but fit the shrunk
// 512KB+256KB partition at a similar miss rate (the premise of the
// paper's static sizing).
func Profiles() []Profile {
	return []Profile{
		{
			Name:        "browser",
			Description: "web page loading: network+render churn, heavy kernel I/O",
			KernelShare: 0.42, UserWorkingSet: 320 * KB, KernelWorkingSet: 96 * KB,
			UserZipf: 1.5, KernelZipf: 1.25,
			UserWriteRatio: 0.28, KernelWriteRatio: 0.47,
			UserStreamFrac: 0.01, KernelStreamFrac: 0.05,
			IfetchFrac: 0.28, UserCodeSet: 128 * KB, KernelCodeSet: 72 * KB,
			UserBurstMean: 220, GapMean: 12.2, Phases: 4,
		},
		{
			Name:        "email",
			Description: "mail client sync+read: bursty syscalls, small user set",
			KernelShare: 0.48, UserWorkingSet: 224 * KB, KernelWorkingSet: 88 * KB,
			UserZipf: 1.55, KernelZipf: 1.25,
			UserWriteRatio: 0.22, KernelWriteRatio: 0.52,
			UserStreamFrac: 0.005, KernelStreamFrac: 0.06,
			IfetchFrac: 0.30, UserCodeSet: 112 * KB, KernelCodeSet: 64 * KB,
			UserBurstMean: 150, GapMean: 13.6, Phases: 3,
		},
		{
			Name:        "maps",
			Description: "map pan/zoom: tile streaming through the kernel",
			KernelShare: 0.45, UserWorkingSet: 352 * KB, KernelWorkingSet: 112 * KB,
			UserZipf: 1.45, KernelZipf: 1.2,
			UserWriteRatio: 0.31, KernelWriteRatio: 0.49,
			UserStreamFrac: 0.02, KernelStreamFrac: 0.07,
			IfetchFrac: 0.24, UserCodeSet: 128 * KB, KernelCodeSet: 72 * KB,
			UserBurstMean: 190, GapMean: 11.6, Phases: 5,
		},
		{
			Name:        "game",
			Description: "casual game: frame loop in user code, input+audio syscalls",
			KernelShare: 0.33, UserWorkingSet: 320 * KB, KernelWorkingSet: 72 * KB,
			UserZipf: 1.6, KernelZipf: 1.3,
			UserWriteRatio: 0.35, KernelWriteRatio: 0.44,
			UserStreamFrac: 0.005, KernelStreamFrac: 0.03,
			IfetchFrac: 0.22, UserCodeSet: 112 * KB, KernelCodeSet: 56 * KB,
			UserBurstMean: 320, GapMean: 10.2, Phases: 2,
		},
		{
			Name:        "social",
			Description: "social feed scroll: image decode + network receive",
			KernelShare: 0.47, UserWorkingSet: 320 * KB, KernelWorkingSet: 104 * KB,
			UserZipf: 1.5, KernelZipf: 1.2,
			UserWriteRatio: 0.30, KernelWriteRatio: 0.50,
			UserStreamFrac: 0.015, KernelStreamFrac: 0.06,
			IfetchFrac: 0.26, UserCodeSet: 128 * KB, KernelCodeSet: 72 * KB,
			UserBurstMean: 170, GapMean: 11.9, Phases: 4,
		},
		{
			Name:        "video",
			Description: "video playback: dominant kernel DMA/copy path",
			KernelShare: 0.55, UserWorkingSet: 192 * KB, KernelWorkingSet: 96 * KB,
			UserZipf: 1.55, KernelZipf: 1.2,
			UserWriteRatio: 0.18, KernelWriteRatio: 0.55,
			UserStreamFrac: 0.01, KernelStreamFrac: 0.05,
			IfetchFrac: 0.18, UserCodeSet: 96 * KB, KernelCodeSet: 64 * KB,
			UserBurstMean: 120, GapMean: 15.3, Phases: 2,
		},
		{
			Name:        "reader",
			Description: "document reader: page render bursts, idle between pages",
			KernelShare: 0.38, UserWorkingSet: 256 * KB, KernelWorkingSet: 80 * KB,
			UserZipf: 1.6, KernelZipf: 1.25,
			UserWriteRatio: 0.20, KernelWriteRatio: 0.45,
			UserStreamFrac: 0.005, KernelStreamFrac: 0.04,
			IfetchFrac: 0.27, UserCodeSet: 112 * KB, KernelCodeSet: 64 * KB,
			UserBurstMean: 260, GapMean: 12.8, Phases: 3,
		},
		{
			Name:        "music",
			Description: "music player: tiny user set, periodic audio syscalls",
			KernelShare: 0.52, UserWorkingSet: 160 * KB, KernelWorkingSet: 80 * KB,
			UserZipf: 1.65, KernelZipf: 1.25,
			UserWriteRatio: 0.15, KernelWriteRatio: 0.53,
			UserStreamFrac: 0.005, KernelStreamFrac: 0.06,
			IfetchFrac: 0.20, UserCodeSet: 80 * KB, KernelCodeSet: 56 * KB,
			UserBurstMean: 110, GapMean: 16.1, Phases: 2,
		},
		{
			Name:        "office",
			Description: "document editing: medium user set, autosave kernel bursts",
			KernelShare: 0.36, UserWorkingSet: 352 * KB, KernelWorkingSet: 80 * KB,
			UserZipf: 1.5, KernelZipf: 1.25,
			UserWriteRatio: 0.33, KernelWriteRatio: 0.48,
			UserStreamFrac: 0.005, KernelStreamFrac: 0.03,
			IfetchFrac: 0.29, UserCodeSet: 144 * KB, KernelCodeSet: 64 * KB,
			UserBurstMean: 280, GapMean: 12.2, Phases: 3,
		},
		{
			Name:        "launcher",
			Description: "home screen and app switching: kernel-heavy context churn",
			KernelShare: 0.50, UserWorkingSet: 256 * KB, KernelWorkingSet: 120 * KB,
			UserZipf: 1.4, KernelZipf: 1.2,
			UserWriteRatio: 0.26, KernelWriteRatio: 0.51,
			UserStreamFrac: 0.01, KernelStreamFrac: 0.05,
			IfetchFrac: 0.31, UserCodeSet: 144 * KB, KernelCodeSet: 88 * KB,
			UserBurstMean: 140, GapMean: 13.3, Phases: 5,
		},
	}
}

// ProfileByName finds a profile from Profiles by name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}

// ProfileNames lists the available profile names in order.
func ProfileNames() []string {
	ps := Profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}
