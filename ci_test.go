package obladi_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsNameTests keeps every `go test … -run` line of the CI
// workflow pointed at tests that exist. Each top-level alternative of a -run
// pattern, taken up to its first '/', must match a Test or Fuzz function in
// that line's packages: a renamed or deleted test otherwise leaves its CI
// step passing while it runs nothing.
func TestCIRunPatternsNameTests(t *testing.T) {
	f, err := os.Open(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := make(map[string][]string) // test functions by package directory
	checked := 0
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		i := strings.Index(line, "go test ")
		if i < 0 {
			continue
		}
		run, dirs := parseGoTest(t, shellWords(line[i+len("go test "):]))
		if run == "" {
			continue
		}
		var funcs []string
		for _, dir := range dirs {
			if _, ok := names[dir]; !ok {
				names[dir] = testFuncs(t, dir)
			}
			funcs = append(funcs, names[dir]...)
		}
		top, _, _ := cutUnbracketed(run, '/')
		for _, alt := range splitUnbracketed(top, '|') {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml:%d: -run alternative %q: %v", n, alt, err)
				continue
			}
			matched := false
			for _, fn := range funcs {
				if re.MatchString(fn) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("ci.yml:%d: -run alternative %q names no Test or Fuzz function in %v", n, alt, dirs)
			}
			checked++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("ci.yml has no go test -run line")
	}
}

// shellWords splits a shell command line into words: whitespace separates
// them, quotes group, and an unquoted '#', ';', '&' or '|' ends the command.
func shellWords(s string) []string {
	var words []string
	var w strings.Builder
	inWord := false
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				w.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, w.String())
				w.Reset()
				inWord = false
			}
		case strings.ContainsRune("#;&|", r):
			if inWord {
				words = append(words, w.String())
			}
			return words
		default:
			w.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, w.String())
	}
	return words
}

// parseGoTest returns the -run pattern of go test's arguments and the
// directories of the packages they name, relative to the module root. A line
// without -run, or whose -run is "^$" (a fuzzing line that names no test on
// purpose), returns an empty pattern.
func parseGoTest(t *testing.T, args []string) (run string, dirs []string) {
	t.Helper()
	boolFlags := map[string]bool{"race": true, "v": true, "short": true} // the rest take a value
	base := "."
	var pkgs []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") {
			pkgs = append(pkgs, a)
			continue
		}
		name, val, hasVal := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if !hasVal && !boolFlags[name] {
			if i++; i < len(args) {
				val = args[i]
			}
		}
		switch name {
		case "run":
			run = val
		case "C":
			base = val
		}
	}
	if run == "^$" {
		run = ""
	}
	if run == "" {
		return "", nil
	}
	for _, p := range pkgs {
		dir, all := strings.CutSuffix(p, "/...")
		dir = filepath.Join(base, dir)
		if !all {
			dirs = append(dirs, dir)
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() {
				dirs = append(dirs, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return run, dirs
}

// testFuncs lists the Test and Fuzz functions of the _test.go files in dir.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var funcs []string
	fset := token.NewFileSet()
	for _, path := range files {
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && (strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				funcs = append(funcs, fn.Name.Name)
			}
		}
	}
	return funcs
}

// cutUnbracketed is strings.Cut at the first sep outside parentheses and
// brackets, as go test splits a -run pattern into its levels at '/'.
func cutUnbracketed(s string, sep byte) (before, after string, found bool) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '\\':
			i++
		case sep:
			if depth == 0 {
				return s[:i], s[i+1:], true
			}
		}
	}
	return s, "", false
}

// splitUnbracketed splits s at every sep outside parentheses and brackets.
func splitUnbracketed(s string, sep byte) []string {
	var parts []string
	for {
		before, after, found := cutUnbracketed(s, sep)
		parts = append(parts, before)
		if !found {
			return parts
		}
		s = after
	}
}
