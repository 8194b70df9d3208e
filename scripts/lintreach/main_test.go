package main

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestNormalizeSymbol(t *testing.T) {
	for _, tt := range []struct{ give, want string }{
		{"repro/internal/obs.(*Registry).Counter", "repro/internal/obs.Registry.Counter"},
		{"repro/internal/obs.Summary.String", "repro/internal/obs.Summary.String"},
		{"repro/internal/obs.sortedKeys[go.shape.*uint8]", "repro/internal/obs.sortedKeys"},
		{"repro/internal/x.(*Set[go.shape.int]).Add", "repro/internal/x.Set.Add"},
		{"repro/internal/x.Pair[go.shape.string,go.shape.struct { A []int }].Key", "repro/internal/x.Pair.Key"},
		{"repro/internal/obs.getg.abi0", "repro/internal/obs.getg"},
		{"repro/internal/x.init.0", "repro/internal/x.init"},
		{"repro/internal/x.Run.func1", "repro/internal/x.Run.func1"},
		{"main.main", "main.main"},
	} {
		if got := normalizeSymbol(tt.give); got != tt.want {
			t.Errorf("normalizeSymbol(%q) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestParseNMKeepsTextSymbolsOnly(t *testing.T) {
	out := strings.Join([]string{
		"  4a3b20 T repro/internal/obs.(*Registry).Counter",
		"  4a3c00 t repro/internal/obs.getg.abi0",
		"  4a3d00 T repro/internal/obs.sortedKeys[go.shape.struct { A int }]",
		"  5f0000 D repro/internal/obs.epoch",
		"  600000 R go:buildid",
		"         U repro/internal/obs.Elsewhere",
	}, "\n")
	got := parseNM([]byte(out))
	want := map[string]bool{
		"repro/internal/obs.Registry.Counter": true,
		"repro/internal/obs.getg":             true,
		"repro/internal/obs.sortedKeys":       true,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseNM = %v, want %v", got, want)
	}
}

// writeTree lays out files (slash paths relative to root) under a temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func keys(decls []decl) []string {
	var out []string
	for _, d := range decls {
		out = append(out, d.Key()+" "+d.Pos)
	}
	sort.Strings(out)
	return out
}

// TestListDeclsHostPlatformOnly: only files go/build selects for the host
// are read, so a function with one body per platform is listed once, from
// the file that builds; tests, testdata and scripts/ are never listed.
func TestListDeclsHostPlatformOnly(t *testing.T) {
	root := writeTree(t, map[string]string{
		"obs/goid_amd64.go": "package obs\n\n// getg is implemented in assembly.\nfunc getg() uintptr\n",
		"obs/goid_other.go": "//go:build !amd64\n\npackage obs\n\nfunc getg() uintptr { return 0 }\n",
		"obs/recv.go": `package obs

type Registry struct{}
type Summary struct{}
type Set[T comparable] struct{}

func (r *Registry) Counter() {}
func (s Summary) String() string { return "" }
func (s *Set[T]) Add(v T) {}
func sortedKeys[K ~uint8](m map[K]int) []K { return nil }
`,
		"obs/obs_test.go":       "package obs\n\nfunc helper() {}\n",
		"obs/testdata/x.go":     "package x\n\nfunc Fixture() {}\n",
		"scripts/tool/main.go":  "package main\n\nfunc main() {}\n",
		"cmd/demo/main.go":      "package main\n\nfunc main() {}\n\nfunc unused() {}\n",
		"cmd/demo/main_test.go": "package main\n",
	})
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH = "linux", "amd64"
	decls, err := listDecls(root, "repro", ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"repro/cmd/demo.main cmd/demo/main.go:3",
		"repro/cmd/demo.unused cmd/demo/main.go:5",
		"repro/obs.Registry.Counter obs/recv.go:7",
		"repro/obs.Set.Add obs/recv.go:9",
		"repro/obs.Summary.String obs/recv.go:8",
		"repro/obs.getg obs/goid_amd64.go:4",
		"repro/obs.sortedKeys obs/recv.go:10",
	}
	if got := keys(decls); !reflect.DeepEqual(got, want) {
		t.Errorf("amd64 decls:\n got  %q\n want %q", got, want)
	}
	for _, d := range decls {
		if d.Main != strings.HasPrefix(d.Pkg, "repro/cmd/") {
			t.Errorf("%s: Main = %v", d.Key(), d.Main)
		}
	}

	ctx.GOARCH = "arm64"
	decls, err = listDecls(root, "repro", ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(decls) {
		if strings.HasPrefix(k, "repro/obs.getg ") && k != "repro/obs.getg obs/goid_other.go:5" {
			t.Errorf("arm64: %s, want getg from goid_other.go", k)
		}
	}
}

func TestParseAllow(t *testing.T) {
	allow, err := parseAllow("# comment\n\nrepro/x.A  test fixture: used by y\nrepro/x.T.M reason\n")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"repro/x.A": "test fixture: used by y", "repro/x.T.M": "reason"}
	if !reflect.DeepEqual(allow, want) {
		t.Errorf("parseAllow = %v, want %v", allow, want)
	}
	if _, err := parseAllow("repro/x.A\n"); err == nil {
		t.Error("entry without a reason: want error")
	}
	if _, err := parseAllow("repro/x.A r\nrepro/x.A r\n"); err == nil {
		t.Error("duplicate entry: want error")
	}
}

func TestCheck(t *testing.T) {
	decls := []decl{
		{Pkg: "repro/obs", Name: "Registry.Counter", Pos: "obs/r.go:1", Lines: 3},
		{Pkg: "repro/obs", Name: "Summary.String", Pos: "obs/r.go:5", Lines: 1},
		{Pkg: "repro/obs", Name: "getg", Pos: "obs/goid_amd64.go:4", Lines: 1},
		{Pkg: "repro/obs", Name: "Listed", Pos: "obs/r.go:9", Lines: 2},
		{Pkg: "repro/obs", Name: "Unlisted", Pos: "obs/r.go:12", Lines: 4},
		{Pkg: "repro/cmd/a", Name: "helper", Dir: "cmd/a", Main: true, Pos: "cmd/a/main.go:7", Lines: 1},
		{Pkg: "repro/cmd/b", Name: "helper", Dir: "cmd/b", Main: true, Pos: "cmd/b/main.go:7", Lines: 1},
	}
	// What the programs' nm output normalizes to: a pointer and a value
	// method, an assembly function, and main.helper in cmd/a's binary only.
	linked := map[string]map[string]bool{
		"cmd/a": parseNM([]byte("1 T repro/obs.(*Registry).Counter\n2 T main.helper\n")),
		"cmd/b": parseNM([]byte("1 T repro/obs.Summary.String\n2 t repro/obs.getg.abi0\n")),
	}
	allow := map[string]string{"repro/obs.Listed": "fixture"}
	unlinked, problems := check(decls, linked, allow)
	var got []string
	for _, d := range unlinked {
		got = append(got, d.Key())
	}
	if want := []string{"repro/obs.Listed", "repro/obs.Unlisted", "repro/cmd/b.helper"}; !reflect.DeepEqual(got, want) {
		t.Errorf("unlinked = %v, want %v", got, want)
	}
	if len(problems) != 2 || !strings.Contains(problems[0], "repro/cmd/b.helper") || !strings.Contains(problems[1], "repro/obs.Unlisted") {
		t.Errorf("problems = %q, want the two unlisted unlinked functions", problems)
	}

	// A stale entry fails the lint: one for a function that is linked now,
	// one for a function that no longer exists.
	allow = map[string]string{
		"repro/obs.Listed":           "fixture",
		"repro/obs.Unlisted":         "fixture",
		"repro/cmd/b.helper":         "fixture",
		"repro/obs.Registry.Counter": "linked now",
		"repro/obs.Deleted":          "gone",
	}
	if _, problems = check(decls, linked, allow); len(problems) != 2 ||
		!strings.Contains(problems[0], "repro/obs.Deleted is not declared") ||
		!strings.Contains(problems[1], "repro/obs.Registry.Counter is linked now") {
		t.Errorf("problems = %q, want the two stale entries", problems)
	}
}

// checkSources parses each package's source (one file per package, listed
// imports first) and runs checkOptions over them.
func checkSources(t *testing.T, srcs ...[2]string) map[string]*option {
	t.Helper()
	fset := token.NewFileSet()
	var pkgs []srcPkg
	for _, src := range srcs {
		f, err := parser.ParseFile(fset, src[0]+"/x.go", src[1], parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, srcPkg{Path: src[0], Files: []*ast.File{f}})
	}
	opts, err := checkOptions(fset, pkgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return opts
}

// TestCheckOptions: a composite-literal key sets an option wherever it is
// written, an assignment or &field only from another package; a default the
// declaring package fills in itself does not. Only exported fields of
// Config, *Config and Options structs are options, and an alias adds none.
func TestCheckOptions(t *testing.T) {
	opts := checkSources(t,
		[2]string{"m/cfg", `package cfg

type Config struct{ Default, Literal, Assigned, Addressed, Incremented, Unset, hidden int }
type WireConfig struct{ Positional int }
type Options struct{ Unset bool }
type Plain struct{ Field int }

func New(c Config) Config {
	if c.Default == 0 {
		c.Default = 1
	}
	c.Assigned, c.Addressed = 2, 3
	return Config{Literal: 4, hidden: c.hidden}
}
`},
		[2]string{"m/app", `package app

import "m/cfg"

type AppConfig = cfg.Config

func F(set func(*int)) {
	var c AppConfig
	c.Assigned = 5
	set(&c.Addressed)
	c.Incremented++
	_ = cfg.WireConfig{6}
	_ = cfg.Plain{Field: 7}
}
`})
	got := map[string]bool{}
	for key, o := range opts {
		got[key] = o.Written
	}
	want := map[string]bool{
		"m/cfg.Config.Default":        false,
		"m/cfg.Config.Literal":        true,
		"m/cfg.Config.Assigned":       true,
		"m/cfg.Config.Addressed":      true,
		"m/cfg.Config.Incremented":    true,
		"m/cfg.Config.Unset":          false,
		"m/cfg.WireConfig.Positional": true,
		"m/cfg.Options.Unset":         false,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("options:\n got  %v\n want %v", got, want)
	}
	if pos := opts["m/cfg.Config.Unset"].Pos; pos != "m/cfg/x.go:3" {
		t.Errorf("Config.Unset declared at %s, want m/cfg/x.go:3", pos)
	}
}

func TestCheckOptionAllow(t *testing.T) {
	opts := map[string]*option{
		"m/cfg.Config.Set":    {Pos: "cfg.go:3", Written: true},
		"m/cfg.Config.Listed": {Pos: "cfg.go:4"},
		"m/cfg.Config.Missed": {Pos: "cfg.go:5"},
	}
	unset, problems := checkOptionAllow(opts, map[string]string{"m/cfg.Config.Listed": "test knob"})
	if want := []string{"m/cfg.Config.Listed", "m/cfg.Config.Missed"}; !reflect.DeepEqual(unset, want) {
		t.Errorf("unset = %v, want %v", unset, want)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "unset option: m/cfg.Config.Missed (cfg.go:5)") {
		t.Errorf("problems = %q, want the unlisted unset option", problems)
	}

	// A stale entry fails the lint: one for an option set now, one for an
	// option that is gone.
	_, problems = checkOptionAllow(opts, map[string]string{
		"m/cfg.Config.Listed":  "test knob",
		"m/cfg.Config.Missed":  "test knob",
		"m/cfg.Config.Set":     "set now",
		"m/cfg.Config.Deleted": "gone",
	})
	if len(problems) != 2 ||
		!strings.Contains(problems[0], "m/cfg.Config.Deleted is not declared") ||
		!strings.Contains(problems[1], "m/cfg.Config.Set is set now") {
		t.Errorf("problems = %q, want the two stale entries", problems)
	}
}
