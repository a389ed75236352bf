package repro_test

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGofmt is the gofmt -l gate as a tier-1 test: every .go file of this
// module must be byte-identical to its go/format rendering.  Nested modules
// (the benchmark, lint fixtures), testdata and dot directories are not
// part of the module and are skipped.
func TestGofmt(t *testing.T) {
	var drift []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out, err := format.Source(src)
		if err != nil {
			return err
		}
		if !bytes.Equal(src, out) {
			drift = append(drift, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(drift) > 0 {
		t.Errorf("%d files differ from gofmt (run gofmt -w on them):\n  %s", len(drift), strings.Join(drift, "\n  "))
	}
}
