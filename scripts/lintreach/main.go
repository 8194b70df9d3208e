// Command lintreach fails when a non-test function is linked by no program
// of the module and is not on its allow-list.
//
// It builds every main package outside scripts/ (cmd/*, bench, examples/*)
// with inlining off, reads their text symbols with `go tool nm`, and matches
// them against the function declarations of every non-test Go file that
// go/build selects for the host platform. An unlinked function must be
// listed in allow.txt with a one-line reason. A listed function that is now
// linked, or no longer declared, fails the lint too, so the list can only
// shrink.
//
// "Linked" is the linker's reachability, which is wider than "called" in one
// case: a method whose name and signature match an interface method some
// program calls (Size() int, from hash.Hash) is kept for every type that is
// converted to an interface, so it counts as linked.
//
//	go run ./scripts/lintreach      (make lint-reach; run from the module root)
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const allowFile = "scripts/lintreach/allow.txt"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lint-reach:", err)
		os.Exit(1)
	}
}

func run() error {
	gomod, err := os.ReadFile("go.mod")
	if err != nil {
		return err
	}
	module := modulePath(gomod)
	if module == "" {
		return fmt.Errorf("go.mod: no module line")
	}
	decls, err := listDecls(".", module, build.Default)
	if err != nil {
		return err
	}
	allow, err := readAllow(allowFile)
	if err != nil {
		return err
	}
	// The option half type-checks while the function half builds.
	type optResult struct {
		summary  string
		problems []string
		err      error
	}
	opt := make(chan optResult, 1)
	go func() {
		var r optResult
		r.summary, r.problems, r.err = lintOptions(module)
		opt <- r
	}()
	linked, err := linkedSymbols(decls)
	if err != nil {
		return err
	}
	unlinked, problems := check(decls, linked, allow)
	lines := 0
	for _, d := range unlinked {
		lines += d.Lines
	}
	fmt.Printf("lint-reach: %d functions, %d linked by no program (%d lines), %d allow-listed\n",
		len(decls), len(unlinked), lines, len(allow))
	r := <-opt
	if r.err != nil {
		return r.err
	}
	fmt.Println(r.summary)
	problems = append(problems, r.problems...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println("  " + p)
		}
		return fmt.Errorf("%d problem(s): delete the function or option, give it a program that calls or sets it, or list it in %s or %s with a reason", len(problems), allowFile, optionsFile)
	}
	return nil
}

// A decl is one function or method declaration.
type decl struct {
	Pkg   string // import path
	Name  string // Name, or Recv.Name for a method
	Dir   string // package directory, relative to the module root
	Main  bool   // declared in a main package: only its own binary can link it
	Pos   string // file:line
	Lines int
}

// Key is the decl's allow-list key.
func (d decl) Key() string { return d.Pkg + "." + d.Name }

// sym is the decl's linker symbol after normalizeSymbol: a main package's
// symbols are named "main", not by import path.
func (d decl) sym() string {
	if d.Main {
		return "main." + d.Name
	}
	return d.Key()
}

func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	return ""
}

// listDecls parses every non-test .go file under root that ctx selects
// (build tags and _GOOS/_GOARCH suffixes), skipping scripts/, testdata and
// hidden directories, and returns its function declarations.
func listDecls(root, module string, ctx build.Context) ([]decl, error) {
	var decls []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if e.IsDir() {
			name := e.Name()
			if rel != "." && (rel == "scripts" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		dir, file := path.Split(rel)
		dir = strings.TrimSuffix(dir, "/")
		if ok, err := ctx.MatchFile(filepath.Join(root, filepath.FromSlash(dir)), file); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module
		if dir != "" {
			pkg += "/" + dir
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				name = recvName(fn.Recv.List[0].Type) + "." + name
			}
			start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
			decls = append(decls, decl{
				Pkg:   pkg,
				Name:  name,
				Dir:   dir,
				Main:  f.Name.Name == "main",
				Pos:   fmt.Sprintf("%s:%d", rel, start.Line),
				Lines: end.Line - start.Line + 1,
			})
		}
		return nil
	})
	return decls, err
}

// recvName is the base type name of a receiver: T for T, *T, T[P] and *T[P, Q].
func recvName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.ParenExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprintf("%T", x)
		}
	}
}

var initN = regexp.MustCompile(`\.init\.\d+$`)

// normalizeSymbol maps a linker symbol to the form decl.sym uses: type
// arguments ("[go.shape.*uint8]") and the pointer-receiver parentheses are
// dropped, so pointer and value methods and every instantiation of a generic
// function match their declaration. An assembly function's ABI suffix
// (".abi0") goes, and the numbered init functions all become "init".
func normalizeSymbol(s string) string {
	var b strings.Builder
	depth := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth > 0:
		case c == '(' && i+1 < len(s) && s[i+1] == '*':
			i++
		case c == ')':
		default:
			b.WriteByte(c)
		}
	}
	s = strings.TrimSuffix(strings.TrimSuffix(b.String(), ".abi0"), ".abiinternal")
	return initN.ReplaceAllString(s, ".init")
}

// parseNM returns the normalized names of the text symbols in `go tool nm`
// output ("  4a3b20 T repro/internal/obs.(*Registry).Counter").
func parseNM(out []byte) map[string]bool {
	syms := make(map[string]bool)
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimLeft(sc.Text(), " ")
		sp := strings.IndexByte(line, ' ')
		if sp < 0 || len(line) < sp+3 {
			continue
		}
		if t := line[sp+1]; (t == 'T' || t == 't') && line[sp+2] == ' ' {
			syms[normalizeSymbol(line[sp+3:])] = true
		}
	}
	return syms
}

// linkedSymbols builds every main package among decls with inlining off (an
// inlined function leaves no symbol) and returns, per program directory, the
// set of normalized text symbols of its binary.
func linkedSymbols(decls []decl) (map[string]map[string]bool, error) {
	bin := map[string]string{} // binary name -> program directory
	var dirs []string
	for _, d := range decls {
		if !d.Main || bin[path.Base(d.Dir)] == d.Dir {
			continue
		}
		if other, ok := bin[path.Base(d.Dir)]; ok {
			return nil, fmt.Errorf("programs %s and %s would build to one binary name", other, d.Dir)
		}
		bin[path.Base(d.Dir)] = d.Dir
		dirs = append(dirs, d.Dir)
	}
	sort.Strings(dirs)
	tmp, err := os.MkdirTemp("", "lintreach")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	linked := make(map[string]map[string]bool, len(dirs))
	args := []string{"build", "-gcflags=all=-l", "-o", tmp + string(os.PathSeparator)}
	for _, dir := range dirs {
		args = append(args, "./"+dir)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	for _, dir := range dirs {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(tmp, path.Base(dir))).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %v", dir, err)
		}
		linked[dir] = parseNM(out)
	}
	return linked, nil
}

func readAllow(file string) (map[string]string, error) {
	text, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	allow, err := parseAllow(string(text))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return allow, nil
}

// parseAllow reads the allow-list: one "<import path>.<[Recv.]Name> <reason>"
// per line; blank lines and lines starting with # are skipped.
func parseAllow(text string) (map[string]string, error) {
	allow := make(map[string]string)
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			return nil, fmt.Errorf("line %d: %s has no reason", i+1, key)
		}
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("line %d: %s listed twice", i+1, key)
		}
		allow[key] = reason
	}
	return allow, nil
}

// check returns the decls no program links and the lint's findings: an
// unlinked decl missing from allow, and an allow entry that is linked or no
// longer declared. linked maps a program directory to its symbols; a main
// package's decl counts only its own program's.
func check(decls []decl, linked map[string]map[string]bool, allow map[string]string) (unlinked []decl, problems []string) {
	declared := make(map[string]bool, len(decls))
	for _, d := range decls {
		declared[d.Key()] = true
		if isLinked(d, linked) {
			continue
		}
		unlinked = append(unlinked, d)
		if _, ok := allow[d.Key()]; !ok {
			problems = append(problems, fmt.Sprintf("unlinked: %s (%s, %d lines)", d.Key(), d.Pos, d.Lines))
		}
	}
	for _, d := range decls {
		if _, ok := allow[d.Key()]; ok && isLinked(d, linked) {
			problems = append(problems, fmt.Sprintf("stale allow entry: %s is linked now; delete the entry", d.Key()))
		}
	}
	for key := range allow {
		if !declared[key] {
			problems = append(problems, fmt.Sprintf("stale allow entry: %s is not declared; delete the entry", key))
		}
	}
	sort.Strings(problems)
	return unlinked, problems
}

func isLinked(d decl, linked map[string]map[string]bool) bool {
	if d.Main {
		return linked[d.Dir][d.sym()]
	}
	for _, syms := range linked {
		if syms[d.sym()] {
			return true
		}
	}
	return false
}
