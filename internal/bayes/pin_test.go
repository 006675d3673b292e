package bayes

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"nscc/internal/core"
)

// Result pins: one SHA-256 digest per run over every field of its
// result, a parallel run's Telemetry as JSON. They hold the samplers to
// the same draws, gambles, rollbacks and messages across changes that
// mean to keep them: every Table 2 network under Figure 3's seven
// variants at P = 2 and at P = 3 (the k-way partition, where several
// partitions send to one), a random-defaults run, a batch override,
// and the serial logic-sampling, likelihood-weighting and defaults
// estimates.

// pinPrecision and pinMaxIters keep each parallel pin short while
// still running past several stopping-rule checks and rollback
// windows; async at P = 3 runs to the cap.
const (
	pinPrecision = 0.04
	pinMaxIters  = 3000
	pinSeed      = 2000
)

// pinVariants are Figure 3's seven programs.
var pinVariants = []struct {
	name string
	mode core.Mode
	age  int64
}{
	{"sync", core.Sync, 0}, {"async", core.Async, 0},
	{"gr0", core.NonStrict, 0}, {"gr5", core.NonStrict, 5},
	{"gr10", core.NonStrict, 10}, {"gr20", core.NonStrict, 20},
	{"gr30", core.NonStrict, 30},
}

// parallelDigest hashes every field of res, its Telemetry as JSON.
func parallelDigest(t *testing.T, res ParallelResult) string {
	t.Helper()
	tel, err := json.Marshal(res.Telemetry)
	if err != nil {
		t.Fatal(err)
	}
	res.Telemetry = nil
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", res)
	h.Write(tel)
	return hex.EncodeToString(h.Sum(nil))
}

// valueDigest hashes a value with no pointers in it.
func valueDigest(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:])
}

// checkPin fails unless got is the digest pinned under name.
func checkPin(t *testing.T, name, got string) {
	t.Helper()
	if want := resultPins[name]; got != want {
		t.Errorf("%s: digest %s, pinned %q", name, got, want)
	}
}

// TestResultPins runs every pinned configuration and compares its
// digest with the pin.
func TestResultPins(t *testing.T) {
	calib := DefaultCalibration()
	for _, bn := range Table2Networks() {
		q := DefaultQuery(bn)
		t.Run(bn.Name, func(t *testing.T) {
			base := ParallelConfig{
				Net: bn, Query: q, Precision: pinPrecision, MaxIters: pinMaxIters,
				Seed: pinSeed, Calib: calib,
			}
			for _, p := range []int{2, 3} {
				plan, err := NewPlan(bn, q, p, pinSeed)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range pinVariants {
					cfg := base
					cfg.P, cfg.Mode, cfg.Age = p, v.mode, v.age
					res, err := plan.Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkPin(t, fmt.Sprintf("%s/P=%d/%s", bn.Name, p, v.name), parallelDigest(t, res))
				}
			}
			checkPin(t, bn.Name+"/serial",
				valueDigest(InferSerial(bn, q, pinPrecision, pinSeed, calib, pinMaxIters)))
			checkPin(t, bn.Name+"/serial-lw",
				valueDigest(InferSerialLW(bn, q, pinPrecision, pinSeed, calib, pinMaxIters)))
			checkPin(t, bn.Name+"/defaults", valueDigest(bn.Defaults(2000, pinSeed)))
		})
	}
	bn := Table2Networks()[0]
	q := DefaultQuery(bn)
	for name, edit := range map[string]func(*ParallelConfig){
		"A/P=2/gr10-random-defaults": func(c *ParallelConfig) { c.RandomDefaults = true },
		"A/P=3/async-batch3":         func(c *ParallelConfig) { c.P, c.Mode, c.Batch = 3, core.Async, 3 },
	} {
		cfg := ParallelConfig{
			Net: bn, Query: q, P: 2, Mode: core.NonStrict, Age: 10,
			Precision: pinPrecision, MaxIters: pinMaxIters, Seed: pinSeed, Calib: calib,
		}
		edit(&cfg)
		res, err := RunParallel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkPin(t, name, parallelDigest(t, res))
	}
}

// resultPins are the digests; a change that moves one changed what that
// run samples, gambles, rolls back, sends or reports.
var resultPins = map[string]string{
	"A/P=2/sync":                 "ccc8246ce28d3c9095c1bdca18bff93cb0ba5fce04f4d505d7777877792f83cc",
	"A/P=2/async":                "cd57a3b4b5bbc58d127f012d3c1a4898ccee7efc7f7810eec814439b3cdda1ce",
	"A/P=2/gr0":                  "2c6dce03b35d4504407b4e70d8fa3d6e86c7db56ada2391c49c068877cb7cd9e",
	"A/P=2/gr5":                  "dd227c49a97b3b09c68fa8f52cab809a80967a09895db7535b12bab7badf4644",
	"A/P=2/gr10":                 "a0fac4db05f176fc2d645f634c8f860aea28a11f143986dc9dd601b1bcfff76b",
	"A/P=2/gr20":                 "e0b776963c11ec9fcf5095d8692fc3c0e5917394715e9019c378f3d217c17e20",
	"A/P=2/gr30":                 "5b1c4322f8571281f1fbd587dbc53d15a61a757d71f35746400f6707641e747a",
	"A/P=3/sync":                 "f3349b3c59eafc0defbe0d4b5c5b2c00218a1a6c7f507517dc0e6c7db8077be8",
	"A/P=3/async":                "5a7a22e3675db773851a9e26191b45f4ec9cf1929b1a978d5bf44b3dd3d64b52",
	"A/P=3/gr0":                  "1bc05e6b1a49fa2c639280fe085c9683f062e46a410638bb85de04eaa38a133e",
	"A/P=3/gr5":                  "cd054a840254fc6aee6dc29634130ff6ef0c8ee7bfb8bf141bb5602ecfd91401",
	"A/P=3/gr10":                 "f4f8ca9dd87a81d169d1ac4490c0c5015ea62bd08359647ea90bd5628ea2330b",
	"A/P=3/gr20":                 "c55879309eb0a49406ef76021441baa1dda1839643fa72597ba45ece28350595",
	"A/P=3/gr30":                 "ec696066210d312d31cc6f6300d151e7b0c21ebeecff7566ae4726e263a72c06",
	"A/serial":                   "2a9633b558aa317033b2fb929d2b9112462621e72a12438cb18a5bd14f19a42c",
	"A/serial-lw":                "ba7354bad287b6b0b4961ffc774d20b9d21f45b9928d293df0c8e16b76172a99",
	"A/defaults":                 "c04baf6bbe36fbff1e7cd1666c66152a650a890cf1b851a4f2f3b168fb9d31b3",
	"AA/P=2/sync":                "223bd43ef355daf247a7a590618df6b32561162376c85898b36d893d5a5c5e18",
	"AA/P=2/async":               "bd7b69854596044a9bdeda9bf125bf4963616d2cbe1e65b3ed3fc658f399eb75",
	"AA/P=2/gr0":                 "d3602631c3c6717cd963aea7ac20008e390d4d62c38890e82492c8b87064c395",
	"AA/P=2/gr5":                 "9842e88af951583ca8894c89d5fb133cff4d9ce7ae387237f64aca944d006174",
	"AA/P=2/gr10":                "2f3fd0af105fd641608c0a66400b9bdf16414a79da3cbfdf7f7e373fc2aab5f0",
	"AA/P=2/gr20":                "cf545264c7ddf26b038a082eaad427cc2e00b6a548940372f478c882d963d0a8",
	"AA/P=2/gr30":                "f8b032f145f4f183e26e167f0842732a1df11084ac73c6cfb5d7c677546fe31b",
	"AA/P=3/sync":                "67fd24f98df5f14a117283a0e24ca2b467dad4a7073738ebfdaad47b5bd9d5c8",
	"AA/P=3/async":               "cd602edb26a61968e4547ea5f2817a41d1d91f46ccf2f1f653f2dd860d9516d0",
	"AA/P=3/gr0":                 "cbcc825d3d7a316c0fc513394772cffa810e42d4005ccb5cfd783f792a07f8fb",
	"AA/P=3/gr5":                 "b7a4e85fd36b1701e11ffc89ca8777b3bbc1d4a86b57a4c8fbf4796890d9dca6",
	"AA/P=3/gr10":                "266e417266103c3d6393ad4e31e1a14ba00c66218138f3878b968d6efd8d6211",
	"AA/P=3/gr20":                "3f43bc0fff49c600bb2f762d6c3d385750ed3228d93286a7af72fa47f72655b9",
	"AA/P=3/gr30":                "844218ea783b4390366fa82bff2560eadef9ad8cfe7279bf712386998ea58ed5",
	"AA/serial":                  "9794e51ca0cc2cab2e34d662295af1c444db96de2fb222a05eb40aab1c697013",
	"AA/serial-lw":               "82e3b290af5fba5b620ae1bee66c202b7465888e364e82bb3f8f81ddfccfb0c9",
	"AA/defaults":                "4dc03b02fe6dd1fffd04eb61f5cb2b0386f4c7ec7f349882b919bc6bb63b62bd",
	"C/P=2/sync":                 "8064649b07c60cdd05937519a4b18010cc2434ad95dab96dd32b168ed58dee1d",
	"C/P=2/async":                "02ef7915b24ef06e30d0ddae851eb54cc8ec4850d0a34b66a9dec9910f41f616",
	"C/P=2/gr0":                  "2d9332895e6a2089847b4b5b2958383e89f68ba79f4137adf0c444e945f5e6a7",
	"C/P=2/gr5":                  "7a72139966501e13649aa160751a3922c65ebd72ea22d824c39e0e8652dde7c5",
	"C/P=2/gr10":                 "05cc8b88958b3250312634be66cee871bbd563e7d29e4a2909dc24252c34e627",
	"C/P=2/gr20":                 "f09432aa148c9db3b890a0285ca72fc976328d405b80a3be71a97115387d43bf",
	"C/P=2/gr30":                 "1d02535da3c1db57a49af18393beb294c0e50005c35ad6703e5b27c6e49c695f",
	"C/P=3/sync":                 "f13da13542b90a19b3bd493d79f688459a4943eb8186c70009ef143e32aacf91",
	"C/P=3/async":                "1693c3c5f9cae8f7a3c7c772e143f84d4fc70c1ce74a4efd242bb652e4b6799f",
	"C/P=3/gr0":                  "c942ff0239e73abbfcd03073b2b294c91cc20cbdf8b88b04af12f75548f4435b",
	"C/P=3/gr5":                  "5c7382bc051214c366f7a85b192a93edc370562299058a9a50d063ad6f1e4997",
	"C/P=3/gr10":                 "7fe0fe0d71afa6e70c9655ae3e50142dc0f62239a957f475c0e3e156a2ffbaea",
	"C/P=3/gr20":                 "a9f3ed3c517e1d0e006a13a0f02def28b1460841fe16318ada40cf9e1d7328a1",
	"C/P=3/gr30":                 "64498c11ca03e6a1a0fbc8e3fcfdf1b2e4c1bbeb255999c5b37fb125ce391139",
	"C/serial":                   "077adbf54eeb84e7b3283d56ef7ed2a451487d6123fdc64af6a78274c891ba5b",
	"C/serial-lw":                "5add14ebbd45df423f9705f7812760a83188ebd8faec9c288faefce9a644517c",
	"C/defaults":                 "74181a4f111dc7bb1fbbdb8b6217d7044b1acbe9be227216feb02801d5d65f2c",
	"Hailfinder/P=2/sync":        "a952e22689f7afaddb68afa2953bb4fa87c3aca4b8f206b046cb3c5d309a1354",
	"Hailfinder/P=2/async":       "041b5f242d437646df6b475f8df3b978e2d7eec133976dc730329788890cc876",
	"Hailfinder/P=2/gr0":         "1e7992e5b187abe0c98e9d436d8ac3b11d494958cb4138d064ad9a396bebe98a",
	"Hailfinder/P=2/gr5":         "da8b4b24509577b68fbbd37d45c2bb31e206cbbdf09714d260f61f10aa06dd9a",
	"Hailfinder/P=2/gr10":        "13681ab77cb19a808c19dbd84131d58a24b08c9f0fdb8070aff2929a2420ef9b",
	"Hailfinder/P=2/gr20":        "c10075b92917a3e077fe7f82d2f1a81a6e1d77ebf67026699dc1d57ca5011dfe",
	"Hailfinder/P=2/gr30":        "d4ca01b0331fed8c762c1e8449bb0142ea2e3b0afd7b9e65b32fd362427d931c",
	"Hailfinder/P=3/sync":        "7110ffa0e73ad7a8207f09191acb39415eaec39fcfd791d24ad0b253325135ef",
	"Hailfinder/P=3/async":       "487101ff1a61cc7a6f1808cdebbb0ed0e60a07e7e09dd15ecb1cb285960bebaf",
	"Hailfinder/P=3/gr0":         "6a957306eebbaeaf9fe331a5167f6a8b0e5418b2eb449d66cf1f0708a46406b8",
	"Hailfinder/P=3/gr5":         "85c9f95813e65442af5f2ee21f033caaaf47bfa882636be3bf76bce873631eff",
	"Hailfinder/P=3/gr10":        "de1857b04625fa298e21efe84f3b883e74eae6221ff7b149d533cf9fa7d3e40b",
	"Hailfinder/P=3/gr20":        "5d0677e3292e3f31d892a4b4c2d1916f8a4477feaa0ee68dcac31fc18597867b",
	"Hailfinder/P=3/gr30":        "6e7326f80dd09a6385fa66d297a51dc9a702b8f37691ce4f6ce78781d99c2405",
	"Hailfinder/serial":          "3c85bea088737beef01678206b5d1decccf476c215538f142c54e0915dbe9eff",
	"Hailfinder/serial-lw":       "98ae2845d05c6c04af163045294c5be5aeffd223235f80120c7cfe1a4036cc88",
	"Hailfinder/defaults":        "a51a16e464d264e7f01c728f00e6c48de8f6192915426214f73a96a22be09149",
	"A/P=3/async-batch3":         "29f506721737a9fb2a822f50a0e8213875fd1b49162da01105d604aef1ed31ba",
	"A/P=2/gr10-random-defaults": "f1562a2195e7d1962ababddc870b828f57dd5241089355ab6b48f86ce235a9ab",
}
