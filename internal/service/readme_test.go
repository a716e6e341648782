package service_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	readmeGoBlock = regexp.MustCompile("(?ms)^```go\n(.*?)^```")
	exampleBody   = regexp.MustCompile(`(?ms)^func (Example\w*)\(\) \{\n(.*?)^\}\n`)
)

// TestReadmeGoBlocksAreExamples fails when a Go block in README.md is not,
// verbatim, the body of an Example function in this package (one level of
// indentation removed): every Go snippet a reader copies is compiled and
// run, with its output checked, by `go test`.
func TestReadmeGoBlocksAreExamples(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("example*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string]string{} // body -> example name
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range exampleBody.FindAllStringSubmatch(string(src), -1) {
			lines := strings.SplitAfter(m[2], "\n")
			for i, l := range lines {
				lines[i] = strings.TrimPrefix(l, "\t")
			}
			bodies[strings.Join(lines, "")] = m[1]
		}
	}
	blocks := readmeGoBlock.FindAllStringSubmatch(string(readme), -1)
	if len(blocks) == 0 {
		t.Fatal("README.md has no Go blocks")
	}
	for _, b := range blocks {
		if _, ok := bodies[b[1]]; !ok {
			t.Errorf("README.md Go block is not the body of an Example in %v:\n%s", files, b[1])
		}
	}
}
