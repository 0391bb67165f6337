package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

func printEnv(out io.Writer, w *workload, seed uint64) {
	fmt.Fprintf(out, "env go=%s nproc=%d gomaxprocs=%d commit=%s source=%s seed=%d workload=%s\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit(), sourceDigest(), seed, w.name)
	fmt.Fprintf(out, "workload %s: %s\n", w.name, w.why)
}

// commit names the measured commit: PERFBENCH_COMMIT when run.sh found
// one, otherwise unknown (a plain checkout has no git metadata;
// sourceDigest identifies the code then).
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// sourceDigest fingerprints the measured code: a hash over go.mod and
// every .go file of the module at the working directory or its parent,
// outside this benchmark. It names the code when no commit is known.
func sourceDigest() string {
	root := "."
	if _, err := os.Stat(filepath.Join(root, "internal")); err != nil {
		root = ".."
	}
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			rel, err := filepath.Rel(root, path)
			files = append(files, rel)
			return err
		}
		return nil
	})
	if err != nil || len(files) == 0 {
		return "unknown"
	}
	slices.Sort(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			return "unknown"
		}
		h.Write([]byte(filepath.ToSlash(f)))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
