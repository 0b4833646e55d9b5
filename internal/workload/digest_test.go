package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"
)

// streamDigests pins the generator's output: the SHA-256 of
// NewGenerator(p, seed, PhaseLen(p, n)) over n records, each hashed as
// Addr, PC (8 bytes each), Gap (4), Op and Domain (1 each),
// little-endian. The 400k-record streams cross every phase boundary of
// every profile, so the zipf samplers rebuilt at each boundary are
// covered too. The table was recorded before the generator's
// per-distribution constants were precomputed; any change to the
// stream's bytes fails here, not only in the goldens downstream.
var streamDigests = []struct {
	profile string
	seed    uint64
	n       int
	sha256  string
}{
	{"browser", 0x1, 1000, "6b5c4247d1a6a648501982df0d50a1b0ce377c7985b9bf25601c2ff221dd7a0c"},
	{"browser", 0x1, 100000, "e7e26bc919dc1180e3370fa4f2812df59bc5edea84bfacb71f90b7e387f5907c"},
	{"browser", 0x1, 400000, "5664d1783548c668c133935d23eed5a80f1c87b008852b368b469efa354c3f33"},
	{"browser", 0x5eed, 1000, "64a14aeb0cd95f1394096c90c0ebfd9024fc988f9f5cf0f352728686ce6838e7"},
	{"browser", 0x5eed, 100000, "70039b1155ccd0cbd4d82e9df116584020e1aa542cb1369516b0597c5a775705"},
	{"browser", 0x5eed, 400000, "37d9ca59855b783a233d6bd07c76c3bcb8e63c85bd9ecb654b9cc870ebc04caa"},
	{"email", 0x1, 1000, "b69e3855163b7c00b6f0996069e58db0bbf98b1f377a807f96c9429440c2373a"},
	{"email", 0x1, 100000, "d256deaf9efb9a0e18785f29b0aebb590188b21c5def0faa3d633aacfc7482c0"},
	{"email", 0x1, 400000, "604eaed68f536f575806de0ff8dd6df78c0b03a316b0cf16cea570410518254c"},
	{"email", 0x5eed, 1000, "83444cf2a14ac267b79908730ae87477b916d23eee0e2a74e9d4692a4e8e56b1"},
	{"email", 0x5eed, 100000, "ab19c637ffb296418c8830fda4e4387b00174683224caefa3cefff09eeb007e8"},
	{"email", 0x5eed, 400000, "c11f094863a468cb21f2b9c2f0f70ddb7e10c1e76f2e536229f9215a2b197e53"},
	{"maps", 0x1, 1000, "d22433e67944e170a7502c74c295f3c01dbc8d06dc5c7e57e4454d4d5ef86888"},
	{"maps", 0x1, 100000, "b798f8d2cbf234f86b3349693abf54bd59922037e277f66ab2a4ba365608e449"},
	{"maps", 0x1, 400000, "2d0b27753a53636df83bbbc2345d5eabf4873a822013d2fa8e2225d36ef08414"},
	{"maps", 0x5eed, 1000, "fd7d5068aa5f65e6b1685f60321be38752e4e2eefd521c91909eb5d148d9f284"},
	{"maps", 0x5eed, 100000, "c8a28744b6a8c87731efb2439e0bbe892d8a58916a44ec716567c6a1c66d9904"},
	{"maps", 0x5eed, 400000, "ba1d5986601950507e292730557d46c5ba7f53f475c11776ecf7a55d234d1dc8"},
	{"game", 0x1, 1000, "dab8c5ce6849b5873373b6aeb114ff593e7f2ff01df9245a1248284b0790186e"},
	{"game", 0x1, 100000, "4bb1bc97639718a39d883751c6a87f5853d18904e93e3527cf8f02dc97672024"},
	{"game", 0x1, 400000, "c8255c1a6fe01b1fa0acf34d7377f54a2f431c5b619bfba15e1b79e6fd9cde25"},
	{"game", 0x5eed, 1000, "491eab88e2ad6f7fa809792681a2c2782bad6c94e1fbd846a56413fbe878f565"},
	{"game", 0x5eed, 100000, "0aa1392a153819fe20663d3e431226e7d6cfa9e82c5aead61b35e75cb928db8f"},
	{"game", 0x5eed, 400000, "98e601fb9bb219133eb994ec22d88a7c9cbd8e32ec7eeb4a9a2ebd197bd55ed2"},
	{"social", 0x1, 1000, "93422cf9dde8e553504e704ffc30b9c0f75a3654e7896be1526d2d3a0ca2d847"},
	{"social", 0x1, 100000, "808fe060dde03ca0bd6f2558584b55061a06d1e811498b8fe1fdd94fe9d34a89"},
	{"social", 0x1, 400000, "f1e41953b43b8a9ce46a339924929ab226a0d06be713b39a34ccd7cee0863d59"},
	{"social", 0x5eed, 1000, "5ca75b821fbe5b256117625e4423d274c7ee0b58ee020580ba3b5346cf034038"},
	{"social", 0x5eed, 100000, "5ecaf53b978ac44097e8cec7db195eefc988c7a386d094aeafcbaf191e8001a3"},
	{"social", 0x5eed, 400000, "26fbd89cd33151da3c928b9a9c829dbea4c3bfe770ae2493b40474258526f439"},
	{"video", 0x1, 1000, "5630d24cc8e0ee352ff6929dc1bfbbe77cfb57f67e08a05dce00dd08580e0b7a"},
	{"video", 0x1, 100000, "b682419c225e42d5d033dab0097bdfd641301b53faaf5a8287d63e50981cacf2"},
	{"video", 0x1, 400000, "124d14165c618daf22e94f54854e025d5d24fdee08681eac19475348eed1c611"},
	{"video", 0x5eed, 1000, "edd92818b8236fdc599856907e1dbbff5dcb89341172a4d0c12b349f116395d1"},
	{"video", 0x5eed, 100000, "e29056a5206b581d02af96f413fc25a755a4d27ef2a1554f5a35dff5c0185a98"},
	{"video", 0x5eed, 400000, "06528d7bff95197bcab93fc9709ee877a65052c5ebf1f86b4b070585a5d585d7"},
	{"reader", 0x1, 1000, "e06c3d61f7f2f15a1bee1521018509c08ab32af36831b5ee2431f10e199964a0"},
	{"reader", 0x1, 100000, "24a97cb4070252360e23c50eee2c4036ff0f53bd9106be9259341b3c05bad9bf"},
	{"reader", 0x1, 400000, "e1ac514c9a302a61e76368fc1a7d6e006a15ce5c1bc8a8681c9c045e358b45bc"},
	{"reader", 0x5eed, 1000, "c98a4ede23f00c0488321d532018bc97b1e1136e703bbdb298386b0ab29ba73d"},
	{"reader", 0x5eed, 100000, "0964cc890fea129450df6ebe04ff2c6485fee65c4b8f703e3a89b4180f944ef9"},
	{"reader", 0x5eed, 400000, "27dc2ef19201392c1359d1461ff2a478232689e2d774a1b5ddaeff069f0b99c9"},
	{"music", 0x1, 1000, "fa8c1d95be964efaae97570209e8bed989e84a80ac824ac5bcec8e5273b385c5"},
	{"music", 0x1, 100000, "9a781f829d8cd5a5d824234ef292652eee9ad779e73af7c18fad6645215085f4"},
	{"music", 0x1, 400000, "2bf75e81eed8218072098d522252d9ca9eac2b09df3df24a3d477138607e042d"},
	{"music", 0x5eed, 1000, "968045feb2cddd8175b63e169c0aee8576a8d332dc257057924bf05fce85e346"},
	{"music", 0x5eed, 100000, "f4799226701c20d2636c9ae353c34fd2aa6c4777d628daea605f0412195bde19"},
	{"music", 0x5eed, 400000, "ae09ba3ef4dc41bd743b8f4e9868801003e4418f60de48e42af8eae3c1665b9a"},
	{"office", 0x1, 1000, "89146dca9dd1a98cc8277dc34e8cce2670802b8c1a8acb180dad72cf570762d1"},
	{"office", 0x1, 100000, "ab3086f1ede9758da16402b6ee2a788a8da68f8cceb89a372d1a9d307dceee86"},
	{"office", 0x1, 400000, "4efadf7627d7beb3135430f2c773c6b9ece49fd33ccfc158ff2b632e68f39a87"},
	{"office", 0x5eed, 1000, "019362464aab1b7deb81457ebfd8bf235fe2eb3c9f8b81db6953265ccd7dea08"},
	{"office", 0x5eed, 100000, "c743d668b01b165a76d534065fe9231890b69909b118344ff6b6d90097ce08fc"},
	{"office", 0x5eed, 400000, "69ebf1f649812bd87143caaf0750e2363d02fcbc2cd1a2bafe6732ae464799b8"},
	{"launcher", 0x1, 1000, "52e39079afcd2bce399820eb012edf9c04e7ace1bfc91560c7731fc15761b814"},
	{"launcher", 0x1, 100000, "6870c32b428aaa5fcb2ec59dbc81223a6fe838c54c665c5e26e18bf714ee6246"},
	{"launcher", 0x1, 400000, "9fb468119115c30b9cb903efcc375604925d05888b5b7111c4b1f25ecf9a481b"},
	{"launcher", 0x5eed, 1000, "50e12bd808b481f6084627d763d8374b6a8569915e6a25c728cdf7a06ed64c19"},
	{"launcher", 0x5eed, 100000, "07ff3aefe23447a443144923091b2fe480965b2959db16752d8c9bcfbf50a345"},
	{"launcher", 0x5eed, 400000, "9782ca21020ca4fdd25e127d92a041de7135702bf0fd35003356ec3650839fd6"},
}

// streamDigest hashes n records of prof's stream at seed.
func streamDigest(t *testing.T, prof Profile, seed uint64, n int) string {
	t.Helper()
	g, err := NewGenerator(prof, seed, PhaseLen(prof, n))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [22]byte
	for i := 0; i < n; i++ {
		a, _ := g.Next()
		binary.LittleEndian.PutUint64(buf[0:], a.Addr)
		binary.LittleEndian.PutUint64(buf[8:], a.PC)
		binary.LittleEndian.PutUint32(buf[16:], a.Gap)
		buf[20] = byte(a.Op)
		buf[21] = byte(a.Domain)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorStreamDigests replays every pinned stream. The digests
// were recorded on amd64 with AVX and FMA. Other architectures have
// their own Exp/Log kernels and may fuse multiply-adds, and on amd64
// math.Exp picks a different kernel when the CPU lacks AVX or FMA, so
// on any other host the streams can legitimately differ: a failure
// there is expected and does not mean the generator changed.
func TestGeneratorStreamDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were recorded on amd64 with AVX and FMA, not on %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("hashes ten million generated records")
	}
	for _, want := range streamDigests {
		prof, err := ProfileByName(want.profile)
		if err != nil {
			t.Fatal(err)
		}
		if got := streamDigest(t, prof, want.seed, want.n); got != want.sha256 {
			t.Errorf("%s seed %#x n %d: stream digest %s, pinned %s", want.profile, want.seed, want.n, got, want.sha256)
		}
	}
}
