// Command attack runs the Section V exploits: the out-of-place Spectre-STL
// attack, the Spectre-CTL attack (native and browser-timer variants), and
// the SSBP process-fingerprinting experiment of Fig 11.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"zenspec"
)

func main() {
	stl := flag.Bool("stl", false, "run out-of-place Spectre-STL (Section V-B)")
	inplace := flag.Bool("inplace", false, "run the in-place Spectre-STL baseline")
	sandboxEsc := flag.Bool("sandbox", false, "run the browser-sandbox escape (Section V-C2 model)")
	ctl := flag.Bool("ctl", false, "run Spectre-CTL (Section V-C1)")
	browser := flag.Bool("browser", false, "run Spectre-CTL with the browser timer (Section V-C2)")
	fingerprint := flag.Bool("fingerprint", false, "run CNN fingerprinting (Fig 11)")
	all := flag.Bool("all", false, "run everything")
	nBytes := flag.Int("bytes", 128, "random secret length for the leak attacks")
	secretStr := flag.String("secret", "", "leak this string instead of random bytes")
	seed := flag.Int64("seed", 5, "simulation seed")
	ssbd := flag.Bool("ssbd", false, "enable SSBD and watch the attacks fail")
	flag.Parse()

	cfg := zenspec.Config{Seed: *seed, SSBD: *ssbd}
	secret, err := secretFrom(*secretStr, *nBytes, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "attack:", err)
		flag.Usage()
		os.Exit(2)
	}

	any := false
	run := func(enabled bool, f func()) {
		if enabled || *all {
			any = true
			f()
		}
	}
	run(*stl, func() {
		fmt.Println(zenspec.SpectreSTL(cfg, secret, zenspec.STLOptions{}))
	})
	run(*inplace, func() {
		fmt.Println(zenspec.SpectreSTLInPlace(cfg, secret))
	})
	run(*sandboxEsc, func() {
		n := len(secret)
		if n > 8 {
			n = 8 // the in-browser search is expensive; keep the demo short
		}
		res, err := zenspec.SandboxEscape(cfg, secret[:n])
		if err != nil {
			log.Fatalf("sandbox: %v", err)
		}
		fmt.Println(res)
	})
	run(*ctl, func() {
		fmt.Println(zenspec.SpectreCTL(cfg, secret, zenspec.CTLOptions{}))
	})
	run(*browser, func() {
		fmt.Println(zenspec.SpectreCTLBrowser(cfg, secret))
	})
	run(*fingerprint, func() {
		res, err := zenspec.Fingerprint(cfg, zenspec.FingerprintOptions{
			ScanRange: 256, Rounds: 12, TrainSamples: 10, TestSamples: 5, Seed: *seed,
		})
		if err != nil {
			log.Fatalf("fingerprint: %v", err)
		}
		fmt.Print(res)
	})
	if !any {
		flag.Usage()
	}
}

// secretFrom returns the secret the leak attacks target: str when it is
// non-empty, else n bytes drawn from seed. A negative n is refused.
func secretFrom(str string, n int, seed int64) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("-bytes %d is negative", n)
	}
	if str != "" {
		return []byte(str), nil
	}
	secret := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(secret)
	return secret, nil
}
