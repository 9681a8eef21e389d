package dapes_bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// gateFiles are the files whose `go test -run` lists name gates by hand.
var gateFiles = []string{"Makefile", ".github/workflows/ci.yml"}

// TestGateListsNameRealTests makes the named gate lists able to fail:
// `go test -run 'A|B'` silently matches nothing for a test that no longer
// exists, so a deleted or renamed gate would drop out of `make golden` or
// the CI race step without a sound. Every Test* name in a -run alternation
// must be a test function defined in one of the packages the same command
// lists.
func TestGateListsNameRealTests(t *testing.T) {
	checked := 0
	for _, file := range gateFiles {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(raw), "\n") {
			pattern, pkgs, ok := goTestRun(shellFields(line))
			if !ok {
				continue
			}
			defined := testFuncs(t, pkgs)
			for _, name := range strings.Split(pattern, "|") {
				name = strings.TrimSuffix(strings.TrimPrefix(name, "^"), "$")
				if !strings.HasPrefix(name, "Test") {
					continue
				}
				checked++
				if !defined[name] {
					t.Errorf("%s:%d: -run names %s, which none of %s defines", file, n+1, name, strings.Join(pkgs, " "))
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no Test names in any -run list; the parser no longer matches the gate files")
	}
}

// goTestRun returns the -run pattern and package arguments of a `go test`
// command line (`go test` or `$(GO) test`), or ok=false for any other line
// and for a go test without -run.
func goTestRun(args []string) (pattern string, pkgs []string, ok bool) {
	i := slices.Index(args, "test")
	if i < 1 || (args[i-1] != "go" && args[i-1] != "$(GO)") {
		return "", nil, false
	}
	for j := i + 1; j < len(args); j++ {
		switch a := args[j]; {
		case a == "-run" && j+1 < len(args):
			pattern = args[j+1]
			j++
		case strings.HasPrefix(a, "-run="):
			pattern = strings.TrimPrefix(a, "-run=")
		case strings.HasPrefix(a, "./"):
			pkgs = append(pkgs, a)
		}
	}
	return pattern, pkgs, pattern != ""
}

// shellFields splits a command line on blanks, keeping single-quoted
// stretches together and dropping the quotes.
func shellFields(line string) []string {
	var out []string
	var cur strings.Builder
	quoted, have := false, false
	for _, r := range line {
		switch {
		case r == '\'':
			quoted, have = !quoted, true
		case !quoted && (r == ' ' || r == '\t'):
			if have {
				out = append(out, cur.String())
				cur.Reset()
				have = false
			}
		default:
			cur.WriteRune(r)
			have = true
		}
	}
	if have {
		out = append(out, cur.String())
	}
	return out
}

// testFuncs returns the names of the top-level Test functions declared in
// the packages a go test command lists (a trailing /... includes every
// package below).
func testFuncs(t *testing.T, pkgs []string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	parseDir := func(dir string) {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			file, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range file.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
					names[fn.Name.Name] = true
				}
			}
		}
	}
	for _, pkg := range pkgs {
		root, recursive := strings.CutSuffix(pkg, "/...")
		if !recursive {
			parseDir(pkg)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() {
				parseDir(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}
