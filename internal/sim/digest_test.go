package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"mobilecache/internal/config"
	"mobilecache/internal/sample"
	"mobilecache/internal/tracestore"
	"mobilecache/internal/workload"
)

// digestCase is one pinned run: a machine, an app, a sampling spec and
// a warmup prefix, at digestAccesses measured accesses and seed 1.
type digestCase struct {
	name   string
	cfg    config.Machine
	app    string
	spec   sample.Spec
	warmup int
	pinned string
}

const digestAccesses = 100_000

// digestVariants returns the machines the digest table covers beyond
// the seven standard ones: baseline-sram and dp-sr with the next-line
// prefetcher on, with idle stretches, with open-page DRAM, and with
// wider 32 KB L1s. The wide-L1 machines run exact only: set sampling
// needs at least 128 sets per cache, and an 8-way 32 KB L1 has 64.
func digestVariants(t *testing.T) (all, exactOnly []config.Machine) {
	t.Helper()
	for _, name := range []string{"baseline-sram", "dp-sr"} {
		base, err := MachineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pf := base.Clone()
		pf.Name += "+prefetch"
		pf.Prefetch = true
		idle := base.Clone()
		idle.Name += "+idle"
		idle.IdleEvery, idle.IdleCycles = 1000, 200_000
		open := base.Clone()
		open.Name += "+open-page"
		open.DRAM.Policy = "open-page"
		all = append(all, pf, idle, open)
		for _, ways := range []int{8, 16} {
			wide := base.Clone()
			wide.Name += fmt.Sprintf("+l1-%dway", ways)
			wide.L1I = config.L1{SizeKB: 32, Ways: ways, BlockBytes: 64}
			wide.L1D = config.L1{SizeKB: 32, Ways: ways, BlockBytes: 64}
			exactOnly = append(exactOnly, wide)
		}
	}
	return all, exactOnly
}

// digestCases enumerates the table's runs in a fixed order.
func digestCases(t *testing.T) []digestCase {
	variants, exactOnly := digestVariants(t)
	machines := append(StandardMachines(), variants...)
	var out []digestCase
	add := func(cfg config.Machine, specs []sample.Spec) {
		for _, app := range []string{"browser", "game", "maps"} {
			for _, spec := range specs {
				for _, warmup := range []int{0, 20_000} {
					name := fmt.Sprintf("%s/%s/%s/warmup-%d", cfg.Name, app, spec.Norm(), warmup)
					out = append(out, digestCase{name: name, cfg: cfg, app: app, spec: spec, warmup: warmup, pinned: reportDigests[name]})
				}
			}
		}
	}
	for _, cfg := range machines {
		add(cfg, []sample.Spec{{}, {Factor: 8}})
	}
	for _, cfg := range exactOnly {
		add(cfg, []sample.Spec{{}})
	}
	return out
}

// reportDigest is the SHA-256 of the report's encoding/json bytes.
func reportDigest(t *testing.T, rep RunReport) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestRunReportDigests pins whole reports to digests recorded before
// the hierarchy's replay was split into front and back stages, so the
// split is checked against output its own code did not produce. Every
// case runs twice: through a nil-store Run, which pipelines the stages
// over the generator's stream, and through a Run on one store shared
// by every case, which replays stored front-stage outputs. Like the
// generator's stream digests, the table was recorded on amd64 with AVX
// and FMA, where the generator's float kernels are the ones that made
// it.
func TestRunReportDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were recorded on amd64 with AVX and FMA, not on %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("replays 360 runs of 100k accesses")
	}
	store := tracestore.New(0)
	for _, c := range digestCases(t) {
		prof, err := workload.ProfileByName(c.app)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []struct {
			name  string
			store *tracestore.Store
		}{{"nil store", nil}, {"shared store", store}} {
			rep, err := Run(context.Background(), path.store, c.cfg, prof, 1, c.warmup, digestAccesses, c.spec)
			if err != nil {
				t.Fatalf("%s (%s): %v", c.name, path.name, err)
			}
			if got := reportDigest(t, rep); got != c.pinned {
				t.Errorf("%s (%s): report digest %s, pinned %q", c.name, path.name, got, c.pinned)
			}
		}
	}
}

// reportDigests maps each digestCases name to its report's digest.
var reportDigests = map[string]string{
	"baseline-sram/browser/1/1/warmup-0":               "21473ac267498229c2f4660c97b7f67d865d172ecb3b96213a98dcba0a484774",
	"baseline-sram/browser/1/1/warmup-20000":           "237b06f5876863aabdcac332625d504fef49ddc3f9832b4e4f53309d3ffe5094",
	"baseline-sram/browser/1/8/warmup-0":               "e8ad831575e167a001961e2099bbe08bb23e7f4d67bda962032bfed2097cad83",
	"baseline-sram/browser/1/8/warmup-20000":           "e563fd6f9102a3b424e74cf530f42b8008473dfd298a95509064b671e5fb91e2",
	"baseline-sram/game/1/1/warmup-0":                  "9a41c9d7bc1b024d8a15d2b42284b287c3374577d22fa68ede322bb06eda118d",
	"baseline-sram/game/1/1/warmup-20000":              "236a792f9ee877d84e6024c40eb3d8d9fbc5e33212d64e58429a0a95ed4b765b",
	"baseline-sram/game/1/8/warmup-0":                  "d2a862866112a79f13837899b9c5bf925ecb468c43a973cb6c7c511f8e28b8d8",
	"baseline-sram/game/1/8/warmup-20000":              "66bcfffd90223dc6c74aa31186a2d5e36c35edbddccd04780692a081a8dcde04",
	"baseline-sram/maps/1/1/warmup-0":                  "daad772115947bc73805b587111c61c941faf9e85a7fb2624c2bd07cfbb7f0d0",
	"baseline-sram/maps/1/1/warmup-20000":              "d9b1a90cd19491102f50b202ac62e0e94954a600a53ba13fb22f45e48cf03f1b",
	"baseline-sram/maps/1/8/warmup-0":                  "3e6b3fdd50c95ee34fbac67d7e0f99c3a86d38fe5a9764171b6a48b912f74fa0",
	"baseline-sram/maps/1/8/warmup-20000":              "c43f0ab437b9d47ae6b8c23e6df8ae4fca25c004c85e976e5897e82b25ae9ac1",
	"baseline-stt/browser/1/1/warmup-0":                "70769bba406f36178c25da5d249427b2f36d16e76baf1f09c552bb7e795a1df8",
	"baseline-stt/browser/1/1/warmup-20000":            "f6ffee254a75b2680b27a527cc8396c61fb4edd05f13edd455fde6e4e0186690",
	"baseline-stt/browser/1/8/warmup-0":                "47669b1d7543186f67b2fb034c191ab9794d468041754212db9af6206c7eb4ba",
	"baseline-stt/browser/1/8/warmup-20000":            "1d5c9fb1aec11d626f2d667123bc0f1bec0170713696f05bade08c2f35e0bfb4",
	"baseline-stt/game/1/1/warmup-0":                   "f2c88724db2fbfc38978db6278bb413f3d27c52bf9219751ad6d568ce338a780",
	"baseline-stt/game/1/1/warmup-20000":               "02153f5becdfd0503a96f6d494bcf93a4015e9a46e851f66b42a27a74cb6cfcb",
	"baseline-stt/game/1/8/warmup-0":                   "9bd1424012a5285df643ab205fdef71c57bbc27c2efc7f5d903312f9e9adece3",
	"baseline-stt/game/1/8/warmup-20000":               "fcee2bace81a6f34f632b716acddce65caee634cc756f0431cbd226891291497",
	"baseline-stt/maps/1/1/warmup-0":                   "51a6ba07b69076068da625e9d5b250104053c55d8576b20631d8672cb02fdbb5",
	"baseline-stt/maps/1/1/warmup-20000":               "8871ca914e6b83c2b8fe44e2adbc1cad70ce720b3cd11a0c6d8ad1514c512e7b",
	"baseline-stt/maps/1/8/warmup-0":                   "24fdc6c087639499efab054eedbf6972c08311dc0d60904e7fdab150a02c1f3f",
	"baseline-stt/maps/1/8/warmup-20000":               "d04d16648433c1d932337412b8d57aefc7612d47e07fdb2d09cd72e49c04c815",
	"baseline-drowsy/browser/1/1/warmup-0":             "01317f18b9d2cba83e129bf6260986591396b9b2eecdedd4e8a3aa4fdb3daa5e",
	"baseline-drowsy/browser/1/1/warmup-20000":         "0e2742df1ed1957d3e512bcf019616ec96bfbd4fc0eb37e14a478fae5293e9e7",
	"baseline-drowsy/browser/1/8/warmup-0":             "259ad73dd39faa4e4efdb1276957f5dd315a49dba2251d00da50e3b036b03c75",
	"baseline-drowsy/browser/1/8/warmup-20000":         "fd1bf1c0f26c6c352a130446e44d32be0da25e688a1f938e64f2ad259228b251",
	"baseline-drowsy/game/1/1/warmup-0":                "17f19881a40950e3794f8f4aa2971b7799558e3ef14fb186da26c27ef068fa29",
	"baseline-drowsy/game/1/1/warmup-20000":            "e66f664334e2dca4501fed206aa0a677d4c65df91b133366c45cc1e1177612e9",
	"baseline-drowsy/game/1/8/warmup-0":                "ea3a552c1087c459e975e8f70150d346f6f6836750dc588761910a18bfd84a0d",
	"baseline-drowsy/game/1/8/warmup-20000":            "856ccdbfb2cc58855ede0be7c78d1fac813e97d4c95b6a544f1bcee4ee414d42",
	"baseline-drowsy/maps/1/1/warmup-0":                "00a176b6110f15faac0e39d0880cd7c64b46cec909903d7e458548085b7b8816",
	"baseline-drowsy/maps/1/1/warmup-20000":            "04345617e5a152995009312cdbb4912fd82772522ac683ba538d41614337cffd",
	"baseline-drowsy/maps/1/8/warmup-0":                "aeb01f2ec8731f504505a0c93fed6c71e7ac1af5e0662c6d27e1eeff03e95253",
	"baseline-drowsy/maps/1/8/warmup-20000":            "900252c987f650b9765f286c53c2d84748bb8897c6a223d3ae7be86f994de948",
	"sp/browser/1/1/warmup-0":                          "c05cf2fddd2934cc9fe8d1621a3d71f242a7d21bcf22e67df2a8dbff63cb61a4",
	"sp/browser/1/1/warmup-20000":                      "229a7d84176e96d6642d3fba7ade333319bd86f36cd19e2848d9c50d06e93e15",
	"sp/browser/1/8/warmup-0":                          "b8d6ec0636a7f249597bca6ef52f35e3c159e62a31e8ac6625d50d8489d3042e",
	"sp/browser/1/8/warmup-20000":                      "122d2dfe40a3b79a92a2f85ed8649c063fa5b03c9a3a9bf062369a6bcf380067",
	"sp/game/1/1/warmup-0":                             "6dd11806459e6990dc0d6824a3ed45aee7e94636a65c7b369eee875628b1cb9f",
	"sp/game/1/1/warmup-20000":                         "818301be4b0ca4ea11ca2fda9130f0e4d1550a9ffcd2ab6f065d37a5c698dedc",
	"sp/game/1/8/warmup-0":                             "daed91096e1c90be23a2eb1fd656e95f998c3fa60fadf7296fb135d230f6512c",
	"sp/game/1/8/warmup-20000":                         "0d97c34126acc3d57826f2c2c41923edbc8042ad00f208b0f6bc60f02eb8db16",
	"sp/maps/1/1/warmup-0":                             "5892a889995e084010bf505b4f9c366e4c4f41d42c4d6ed99ae42032b9d1466b",
	"sp/maps/1/1/warmup-20000":                         "75fa1d7cf9289c1d741767ee5bd37719d4de7788cc740d39e9445df85b1dff39",
	"sp/maps/1/8/warmup-0":                             "d0c63dd7a1b02cd7212048a6fb09e3dbf5223607769247d9af813c17c21fc6bd",
	"sp/maps/1/8/warmup-20000":                         "2d80d50282cda7d38bc6125d8bd70f2602a7b38b0399a9b1ac5ee9e8373dfe80",
	"sp-mr/browser/1/1/warmup-0":                       "8e763b7168f30fa6ff57178e74321cbeb888813f2ef7ff6b928280d47994612a",
	"sp-mr/browser/1/1/warmup-20000":                   "20f74426e44f9c8edc82b6004604f52e57c06338ec9d7bee7e479646ec09f752",
	"sp-mr/browser/1/8/warmup-0":                       "04124bd279cbdd92260e985dac92d69a9fe2e4bfffb381d29d02f8ff3ede2558",
	"sp-mr/browser/1/8/warmup-20000":                   "57c52b43e464e268323fcc81f6d5eae80b1676a5183888c5dc0a38667d71e835",
	"sp-mr/game/1/1/warmup-0":                          "f3bf0b5536bab91cd478240a963b1c3303be168de5db1ce0140f2ffd0373add2",
	"sp-mr/game/1/1/warmup-20000":                      "74932d8d4e5184d3bbffbb52fdcfae666317b07cd12e20c005a08a7b9014cfe3",
	"sp-mr/game/1/8/warmup-0":                          "2ccf5f88c4baaf59e7addcd1deff4d5307e28ac15b245b904f1c3f90aff4a115",
	"sp-mr/game/1/8/warmup-20000":                      "c6fa07df96cfa1793df774a75f8b4dc2aac8c06acf065f9766c28da395787b66",
	"sp-mr/maps/1/1/warmup-0":                          "1da83085a78923da4b59b6bacae4029c756e4924d6b484770afcd6cbd94918da",
	"sp-mr/maps/1/1/warmup-20000":                      "fed3e21bf2b4cd1f82ad9cf93118dde9430fe18c88f0cfe3666245260fcf82b0",
	"sp-mr/maps/1/8/warmup-0":                          "5834bfdf6142ddaefc9897df40b9a775fb9931aa08f9cb82152ef725c36bdce5",
	"sp-mr/maps/1/8/warmup-20000":                      "686206b8c048bcbe04dcfd28007b836dcf4effc93cc03c08f588ec1d5bd684ba",
	"dp/browser/1/1/warmup-0":                          "d9cf7ed3b97ad9367f9df9aa7320641fc5123bd85425b683f2979b2747ad9417",
	"dp/browser/1/1/warmup-20000":                      "862b406a30c155465e4ca1e41764f332acee3c9573a02cfab60b3239382d3613",
	"dp/browser/1/8/warmup-0":                          "193bf25b8d2d3bf87f7bfe96aabd065bbb06a13acfa596b9e295a61fe1e6ace3",
	"dp/browser/1/8/warmup-20000":                      "3ed6f0f5119b59e40df8d6d8480da2d5b7245885b0bd10f93467bc3dfe1a4dff",
	"dp/game/1/1/warmup-0":                             "438b7df050b5841fdb4bd2cc2a8b35298bad3694269487369798b808dca8c625",
	"dp/game/1/1/warmup-20000":                         "017ee55439558155150f4f7c3c5e621ae736b0ca40364c694a948d9261348474",
	"dp/game/1/8/warmup-0":                             "e4b543156dc22c528e8c1ff650113f19f200a0f440f031e74901ff6f66c9531e",
	"dp/game/1/8/warmup-20000":                         "ad7c4ace8d8d43080ad77cd6497eee94e2a10c8b704e2ed161e768354e1aae64",
	"dp/maps/1/1/warmup-0":                             "d868d152f8bd775fcfe1961d90a7cbf682e63f9df3887bca5a4dc1e9f9ce193b",
	"dp/maps/1/1/warmup-20000":                         "b9f658a6c490384ac1b1b9c7a21b3217c6ad6dcf1f7dd9c86c46afa0f12ba0e6",
	"dp/maps/1/8/warmup-0":                             "871755c5309cde5635abed8b2ab24f546d1bc08bb46815077a37ad25640bc826",
	"dp/maps/1/8/warmup-20000":                         "79322b901fd2a019310464a79a5d5fbf7c5834a5b82364eeaf06aaabeeb750eb",
	"dp-sr/browser/1/1/warmup-0":                       "6cf8fbc6b3b362592cbebcce2cf4fe318f66108e1ed851eb9d6ac4a6f2f8de6e",
	"dp-sr/browser/1/1/warmup-20000":                   "43536a112d1e887d1b187f1ce50ac9e637f60303f1a57c004a4818b2f303e7f3",
	"dp-sr/browser/1/8/warmup-0":                       "950f558e2769f69968f70a04fea243bd2a3b1b56fdcd2a38277857b071559da5",
	"dp-sr/browser/1/8/warmup-20000":                   "bead24bc135870ef954a1df03599c4a4c7f9910547710f62d021c46efbdf114c",
	"dp-sr/game/1/1/warmup-0":                          "d680ac175aa805ea8bba3415ee1ff116c93148d1cf6c0fd42bce645789da12a7",
	"dp-sr/game/1/1/warmup-20000":                      "0b48da8a98fda09630b3e304e86936b3534756fc9e7d7e841751cdb760b4f620",
	"dp-sr/game/1/8/warmup-0":                          "54c0564e8470c627fbaab3254851312da2612f06cb502a5986c71c100d93a744",
	"dp-sr/game/1/8/warmup-20000":                      "eb2cf8ea9e9b417fa596157e7d3e8db25b2b962ca368126e0d4d6bc9ccfba92e",
	"dp-sr/maps/1/1/warmup-0":                          "467b8b6af7114ae50e32a92cb88aaab429b9c557b17fd13a1421c36341940243",
	"dp-sr/maps/1/1/warmup-20000":                      "b69784ea57790fe0c61ec8aa7403b73a031ad86ddef1497853db6047da607358",
	"dp-sr/maps/1/8/warmup-0":                          "5e04166a7d1773b7c15135d94cffce79d7279386ca2e7919885f2fb59c00aad9",
	"dp-sr/maps/1/8/warmup-20000":                      "b4d0c25cbd5198bce93da7ef4192f37b56a88b449857f1cfe9a60a9b377522ae",
	"baseline-sram+prefetch/browser/1/1/warmup-0":      "7e3ea4e9d95bca9538f6ec590a8e50a987871a8f94590311522ff9966d659a86",
	"baseline-sram+prefetch/browser/1/1/warmup-20000":  "993fc009e01c92d5286bae8ade054e0d9a5d1f08889f5ec8bac25212decdac06",
	"baseline-sram+prefetch/browser/1/8/warmup-0":      "28b42b947e0ac76108f73630d42a8191330eb2e39a4da77dfc28c92c32844989",
	"baseline-sram+prefetch/browser/1/8/warmup-20000":  "76408f4bcb7bd477898444859e904b28064691ffb8a45ed6119ef1df4911c547",
	"baseline-sram+prefetch/game/1/1/warmup-0":         "5ac5c8c1003a749bd61d61aed9725ae4213c119177bbada615f975a0fbb9e7b1",
	"baseline-sram+prefetch/game/1/1/warmup-20000":     "020d3d805ab3d1037d33ad8441d52f983a8381b0b6c0053c76ca63319766139e",
	"baseline-sram+prefetch/game/1/8/warmup-0":         "d44d9fef0ce471b102cedf693a750e8ccee17a43abe9c2ee620ca73f2416d9df",
	"baseline-sram+prefetch/game/1/8/warmup-20000":     "9c7a3471379bf63795f2cbc3f34b20d83fa1ac7c22d59623d71d7a5567a10426",
	"baseline-sram+prefetch/maps/1/1/warmup-0":         "8d960e5e4a389dc2494b6cf43027cc140cdb0fc68b31f7722269b8e3751a88e5",
	"baseline-sram+prefetch/maps/1/1/warmup-20000":     "9882cd22fe69544f9e55d7751f978cb55e495cec9944c5218a02ff957a77bcbd",
	"baseline-sram+prefetch/maps/1/8/warmup-0":         "b77d21b552b1c68d8e7a69e75eace44be532dc6573bc9a027d8a35b06d1a2d5c",
	"baseline-sram+prefetch/maps/1/8/warmup-20000":     "61fba763a35e7fa1cd1c74610bf3f52d45bce26873bdd03f5be9b0c4830c26fd",
	"baseline-sram+idle/browser/1/1/warmup-0":          "a5a94d197e390f8e9938c583293a57f3595c58981f355df12ddc1d08d48b3cd7",
	"baseline-sram+idle/browser/1/1/warmup-20000":      "5f8637a91e00842784afe1cade03b2721eddcb8dc499001ddd62ad08e23a5354",
	"baseline-sram+idle/browser/1/8/warmup-0":          "4c0d4ef2bb5f3b202c0b2a1ae5a5c5e763416af8a263816244b45e523a7c391a",
	"baseline-sram+idle/browser/1/8/warmup-20000":      "9a93fb3a25bec98d3b80d5d00abeb2c04ad10507857a43e3df9a883ba3f74132",
	"baseline-sram+idle/game/1/1/warmup-0":             "d9c42e86c1d95b1df2b2d6dcd9820fe2a54bf89a039f84cb5937c3a5705e1b0f",
	"baseline-sram+idle/game/1/1/warmup-20000":         "0ceb6bafcf25ed867d47d1971ea38e2399d06c3dbd55c9a5ffb53a8a67c12635",
	"baseline-sram+idle/game/1/8/warmup-0":             "dab3f748c34a7a3ae259d8ce6b42f33b85368b7bf38d2a806059d3a78682e4f0",
	"baseline-sram+idle/game/1/8/warmup-20000":         "a22e4c9514b9d3adacb22d78a665a368817cbc0aa40df47bb8314342ea17a40e",
	"baseline-sram+idle/maps/1/1/warmup-0":             "02f2ee476b1627a1c699c7a2f373c508cba9a7017eb9ef9ceef0147b599bef19",
	"baseline-sram+idle/maps/1/1/warmup-20000":         "7d8f44704196a138d711e2b731b2ed288e302bd3e488ae7435fa50b2659a8496",
	"baseline-sram+idle/maps/1/8/warmup-0":             "a5c778249ac7346443f0524d1bc3dc726ce176ec028785a453bfdc64471cad74",
	"baseline-sram+idle/maps/1/8/warmup-20000":         "268ae1f4f6b1f053744b101259714c16ecc4e8e0a550fdc1b5821e52270ec9c6",
	"baseline-sram+open-page/browser/1/1/warmup-0":     "4e7939cad9db0498aad9a8ab03d6f0c8d625d3514827da077632f9ea75247f66",
	"baseline-sram+open-page/browser/1/1/warmup-20000": "b2b02bf43bcc517a123f176be439759ed1393aebd77d568a5e1f2a1dbbf5d159",
	"baseline-sram+open-page/browser/1/8/warmup-0":     "13bf9cfad9c941e230c7bd41dc9f855fd133623948db5ced96f939afada90b24",
	"baseline-sram+open-page/browser/1/8/warmup-20000": "8242d992517fb9f5210258548831be1a73079cedf635df01cdc4f431ab6bbaf2",
	"baseline-sram+open-page/game/1/1/warmup-0":        "9709e5ac89808cc0c57d661662425dda38d55f468ed0f426cbd87598b811ddc4",
	"baseline-sram+open-page/game/1/1/warmup-20000":    "b6522cccdb78f0ed99cb54921733148fc48de706da88ecf7885965c3a7ec41dd",
	"baseline-sram+open-page/game/1/8/warmup-0":        "7526d5407df70d62627b981c45b5c4550261ae07f92a719cc434755982d8833b",
	"baseline-sram+open-page/game/1/8/warmup-20000":    "b05bbd5e14a6ff87183d95bc30a726609c9f3c47f030ed823fca690e08ae2b1f",
	"baseline-sram+open-page/maps/1/1/warmup-0":        "5b7e0ecc098e3d96d6527b1aa557abc61e732ba0ad1d08f26dc0f8eddf9544ae",
	"baseline-sram+open-page/maps/1/1/warmup-20000":    "5b2b67786d517ff6debacf3abeadb9d39f67c3008e6bd71881d2236e3147dcad",
	"baseline-sram+open-page/maps/1/8/warmup-0":        "3ecba8f0d7c07a2bfa61ff9e7222e2b2794e702fa6bb83c7336e8eef742b5d8f",
	"baseline-sram+open-page/maps/1/8/warmup-20000":    "034588e7eeeed40c628cc24601215e110093795c36e871365d05403fd9bbcd91",
	"dp-sr+prefetch/browser/1/1/warmup-0":              "bc3caa54a23e39394f5a745d708ba21e27a6a3a342402e8ffe517e12ce6daa71",
	"dp-sr+prefetch/browser/1/1/warmup-20000":          "b9ad96dde4408fc9edf171590eca40e086aa88aae2113e6efbde1e23cd176721",
	"dp-sr+prefetch/browser/1/8/warmup-0":              "5ebb465d03f4aa4fe92d3412ca7ae2fa9f8754d7efff953e51681c506ab2dde9",
	"dp-sr+prefetch/browser/1/8/warmup-20000":          "acecbb357617d9393fdffdaf5914ab0ca4fe955e6fe22c1cd23585ab3c0ae18e",
	"dp-sr+prefetch/game/1/1/warmup-0":                 "3232cdcbb07b4eb4ce9372fca25079e16773413dc36963f3d476b2aa1b057585",
	"dp-sr+prefetch/game/1/1/warmup-20000":             "a3450639967d1f7223d0c537451c38dc7d01e64f1ffefcf61640a0a414029323",
	"dp-sr+prefetch/game/1/8/warmup-0":                 "78c9228390fd760ad604f28b3fa143801fc21ff8c104bc8aec8b781b26669488",
	"dp-sr+prefetch/game/1/8/warmup-20000":             "11762d5f0491d4eae70c5f5a439d31bc93210de11720efa9dc1cab6bc3d85adb",
	"dp-sr+prefetch/maps/1/1/warmup-0":                 "c149d9151a91f2ff1ef1d17089822734ef67caa7f4fbedbac46919b83bb787d1",
	"dp-sr+prefetch/maps/1/1/warmup-20000":             "2997af3f40fc52656b84e3a561556b7afedf64de6de6968488537f1bae96181c",
	"dp-sr+prefetch/maps/1/8/warmup-0":                 "cd38f5210b3f2505535aa1993d3058656538d2c066ad9de5085e8c54ea26600c",
	"dp-sr+prefetch/maps/1/8/warmup-20000":             "e46dd17d1b2efcc7699cb4500061dede67ad3e1ad8c55e96e1ac5235f3d1cb47",
	"dp-sr+idle/browser/1/1/warmup-0":                  "58aa03e9d96f3423b0b9a2da418854469baa86e934582c81ad91fd37122ddcf8",
	"dp-sr+idle/browser/1/1/warmup-20000":              "d400b33cc22e4a89a1d2ba79476096b7cab1946ddde27bbab43139c25aae5531",
	"dp-sr+idle/browser/1/8/warmup-0":                  "b9117a8276aa4273a7be756c3a014c8bacdd988110a1ef314de3639bb9787561",
	"dp-sr+idle/browser/1/8/warmup-20000":              "c9af14ea12e8a40c9e67e3ee4a6d971753c0b6daa8e98360efbaed872ffe832e",
	"dp-sr+idle/game/1/1/warmup-0":                     "9b5b9ec66bc3d73c29bffc09899b204200cbbfc64e783d1098e7927d42d71517",
	"dp-sr+idle/game/1/1/warmup-20000":                 "0335e3ed11108b2ece314233ae19aecf5442affe07cfe63086c35360aa93f927",
	"dp-sr+idle/game/1/8/warmup-0":                     "28737f3c7cafefe9ea56c34e21e60761166c731724a59161146d1dbd7668fd9b",
	"dp-sr+idle/game/1/8/warmup-20000":                 "3ddb7a6eb4a98375f039e6dec311c1baac39e0130379adfeadc4ffeb82650607",
	"dp-sr+idle/maps/1/1/warmup-0":                     "d455fb292e0285756322a8818a03cc1099b14f4096da4378d0e33731199b5553",
	"dp-sr+idle/maps/1/1/warmup-20000":                 "f424e1f9b47775dc6980f84649a9d9b77205fcffe1c3da491ffe8dead462fee4",
	"dp-sr+idle/maps/1/8/warmup-0":                     "e63242506120d0e0fba3a772b47a38b4766a1fbaaa90e7049ad3d4b3dd55fada",
	"dp-sr+idle/maps/1/8/warmup-20000":                 "b2cba313c3b1de2ecb837ed281de4d477ce7a726348501c21b7eba28f6098a6d",
	"dp-sr+open-page/browser/1/1/warmup-0":             "3c6d8b2f60d336bf5cb3f45876ad96dbb13a69dfd86729435b9b5edbcc2076ea",
	"dp-sr+open-page/browser/1/1/warmup-20000":         "f8ffa0ecc23ee55afd523f93d7ea6a4bb92ddd54f01be57b5621c06961c74a02",
	"dp-sr+open-page/browser/1/8/warmup-0":             "156320f2c9f9c91283fe192c7b6e99c43ece905dea900955452e44c0dcf203a5",
	"dp-sr+open-page/browser/1/8/warmup-20000":         "062b7c34f9d923c935fd881c8b9f0cf521b83acc281c0b738b1a36a803f495b9",
	"dp-sr+open-page/game/1/1/warmup-0":                "5133522fd8e888a38346fbf31d745ba0e69265010fd837b254647b39b58f95a0",
	"dp-sr+open-page/game/1/1/warmup-20000":            "3830994406c827533aab9a707e7a2a13ccd714f73a868aa3afa60a178f5720ae",
	"dp-sr+open-page/game/1/8/warmup-0":                "f4602e01661aba753502a175193ba135d08eb78ee73622aab4015ae92d96c734",
	"dp-sr+open-page/game/1/8/warmup-20000":            "bcb79242b1365d9f290cb928c18d1954cb7757132999be30057e43f32bd69e3c",
	"dp-sr+open-page/maps/1/1/warmup-0":                "0635f1f244641777bd703c0be494c58a9f68749d7b6bc4b9e90d05e512a8e61c",
	"dp-sr+open-page/maps/1/1/warmup-20000":            "c824f3ff32f85c585113ef2107e3bcd8c481626bb3086170a038851ebda832d2",
	"dp-sr+open-page/maps/1/8/warmup-0":                "efe6e0c8aabb419eaa2d892a4941218c47c89be273a4ad2847c1cd12250418ff",
	"dp-sr+open-page/maps/1/8/warmup-20000":            "dfeddc73eeba6dc63d078dca09d9cc326480d9654db9def708136a1bc96e9db1",
	"baseline-sram+l1-8way/browser/1/1/warmup-0":       "62aba2fa2ff1b5cae2599b2f3fd22e847083b0a54520c1fbf0568ec3c312d094",
	"baseline-sram+l1-8way/browser/1/1/warmup-20000":   "1b15ee7bc8459db1e43d8712e3fc6f6685d27e5cd6330e4a0723554b902927af",
	"baseline-sram+l1-8way/game/1/1/warmup-0":          "ee676bd9b546da4bd2b6c1d9ad97355488ada5a520369e11c7346294d7a50425",
	"baseline-sram+l1-8way/game/1/1/warmup-20000":      "d1a0fb519b63e6268abfa2b4fb8c79b9d27d53c7f4a4915dd994deb0c21e5797",
	"baseline-sram+l1-8way/maps/1/1/warmup-0":          "ebb29408289dc2d857da6cbad8a15697d9f3973672c2581c246bc0ead36466ee",
	"baseline-sram+l1-8way/maps/1/1/warmup-20000":      "9d68bbe070a89e507c61619b0a3d947d4d275c1de48a4a718012a4abf5c13008",
	"baseline-sram+l1-16way/browser/1/1/warmup-0":      "2c0d71367f9fbd1d0bb5fafdfed767c966bc166553cd9d2e80070baba94b2f45",
	"baseline-sram+l1-16way/browser/1/1/warmup-20000":  "3f7d409f4a6abf94e44d863a05e73318265a453d64ae144277adbebf27d05db1",
	"baseline-sram+l1-16way/game/1/1/warmup-0":         "938d52cf82ca233d2579a4550cabdaa493627ecf85dc075035e87b0c2a8d40c8",
	"baseline-sram+l1-16way/game/1/1/warmup-20000":     "77a1be010834f32da261dad18fd80f54102e3b868b16425b01b531d1404ed59a",
	"baseline-sram+l1-16way/maps/1/1/warmup-0":         "07b17c29bfc435c89901a8c03781a577ed2d1d434cb9c15dfcabca5f67862dd3",
	"baseline-sram+l1-16way/maps/1/1/warmup-20000":     "601208745edd6d15aefa9bd0ef15e45d90b8ad31fe6ce1a8b25e29e145d169d4",
	"dp-sr+l1-8way/browser/1/1/warmup-0":               "5a2e9fda2312b94614d38b17736c8f9acdd89462c095160d010b04827c24ac5e",
	"dp-sr+l1-8way/browser/1/1/warmup-20000":           "60c79b66b28ffcd7a5f56a666f985dfdb43f0986db354cbbb4d164957bac2091",
	"dp-sr+l1-8way/game/1/1/warmup-0":                  "3e69e36234d3a8765c7ae0e0dac663b737f387ed2e271c82a4a0cf08bce14770",
	"dp-sr+l1-8way/game/1/1/warmup-20000":              "6d3529944eebbcf2ef9349d7de12dfd2b41d113ec905a7b3d351fa0943d4b158",
	"dp-sr+l1-8way/maps/1/1/warmup-0":                  "0b3ec2a30f671344ca63d9f4d867d098eb9c2a8160cc751839da05ad7f6ba437",
	"dp-sr+l1-8way/maps/1/1/warmup-20000":              "2db621a94d3fa0f31a18c70b5fa06774ba7948165c7a1aef4006aa9cfb2e3fe9",
	"dp-sr+l1-16way/browser/1/1/warmup-0":              "99ed6a1642377d7da717dcee05e382b03d5fbc5f95dde40cba9c777dfe8fc679",
	"dp-sr+l1-16way/browser/1/1/warmup-20000":          "2bc50cb388923c3f63567844ef0b8ebe7fbd19221121861d55b1af5c756a58ff",
	"dp-sr+l1-16way/game/1/1/warmup-0":                 "ebe914f4343bd077f85b5a75eae081bd5020170f870991dc8f77bb3c0aef763a",
	"dp-sr+l1-16way/game/1/1/warmup-20000":             "5c4d050e352b3dca4d697445027543eb1e142a47cc127c5f327a71ee159e311b",
	"dp-sr+l1-16way/maps/1/1/warmup-0":                 "8a175ead7d5408fa2c7f3f5715728a0a4f562c1ae5056201b29c397d72b118eb",
	"dp-sr+l1-16way/maps/1/1/warmup-20000":             "0b76f69b3753e0d05fb74d199151a9c43225ed48d337d2edc903c8467d27bb99",
}
