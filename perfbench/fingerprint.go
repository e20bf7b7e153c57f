package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	gort "runtime"
	"strconv"
	"strings"
)

var fingerprintOrder = []string{"cpu", "nproc", "gomaxprocs", "go", "seed", "commit", "source"}

// fingerprint identifies the machine, toolchain and code a result came
// from; results are only comparable between equal fingerprints.
func fingerprint(cfg config) map[string]string {
	return map[string]string{
		"cpu":        cpuModel(),
		"nproc":      strconv.Itoa(gort.NumCPU()),
		"gomaxprocs": strconv.Itoa(gort.GOMAXPROCS(0)),
		"go":         gort.Version(),
		"seed":       strconv.FormatInt(cfg.seed, 10),
		"commit":     cfg.rev,
		"source":     sourceDigest(cfg.root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root (the
// checkout need not be a git repository), skipping build output.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
