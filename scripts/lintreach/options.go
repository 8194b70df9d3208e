package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const optionsFile = "scripts/lintreach/options.txt"

// An option is one exported field of a struct type named Config, *Config or
// Options, keyed "<import path>.<Type>.<Field>".
type option struct {
	Pos     string
	Written bool
}

// srcPkg is one package's non-test files, parsed.
type srcPkg struct {
	Path  string
	Files []*ast.File
}

// listPackages parses the non-test files of the module's packages outside
// scripts/, in `go list -deps` order: every package after its imports.
func listPackages(fset *token.FileSet, module string) ([]srcPkg, error) {
	out, err := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	var pkgs []srcPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct {
			ImportPath, Dir string
			GoFiles         []string
			Standard        bool
		}
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		if p.Standard || strings.HasPrefix(p.ImportPath, module+"/scripts/") {
			continue
		}
		dir, err := filepath.Rel(wd, p.Dir)
		if err != nil {
			return nil, err
		}
		sp := srcPkg{Path: p.ImportPath}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			sp.Files = append(sp.Files, f)
		}
		pkgs = append(pkgs, sp)
	}
}

// pkgImporter resolves the packages already checked and hands the rest (the
// standard library) to the source importer.
type pkgImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (im pkgImporter) Import(path string) (*types.Package, error) {
	if p := im.checked[path]; p != nil {
		return p, nil
	}
	if im.std == nil {
		return nil, fmt.Errorf("package %s not checked", path)
	}
	return im.std.Import(path)
}

// checkOptions type-checks pkgs (imports first) and returns every option
// field they declare, marked written when non-test code sets it: as a key of
// a composite literal anywhere, or by assignment, ++/-- or &-address outside
// the declaring package (a default the package fills in itself is not a
// setter). An unkeyed literal writes every field. std imports packages
// outside pkgs; nil refuses them.
func checkOptions(fset *token.FileSet, pkgs []srcPkg, std types.Importer) (map[string]*option, error) {
	im := pkgImporter{checked: map[string]*types.Package{}, std: std}
	opts := map[string]*option{}
	fields := map[*types.Var]*option{}
	infos := make([]*types.Info, len(pkgs))
	for i, sp := range pkgs {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := (&types.Config{Importer: im}).Check(sp.Path, fset, sp.Files, info)
		if err != nil {
			return nil, err
		}
		im.checked[sp.Path], infos[i] = pkg, info
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !(name == "Options" || strings.HasSuffix(name, "Config")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			for j := 0; ok && j < st.NumFields(); j++ {
				if f := st.Field(j); f.Exported() {
					p := fset.Position(f.Pos())
					o := &option{Pos: fmt.Sprintf("%s:%d", p.Filename, p.Line)}
					opts[sp.Path+"."+name+"."+f.Name()], fields[f] = o, o
				}
			}
		}
	}
	for i, sp := range pkgs {
		info := infos[i]
		write := func(x ast.Expr, anyPkg bool) {
			if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
				x = sel.Sel
			}
			if id, ok := x.(*ast.Ident); ok {
				if f, ok := info.Uses[id].(*types.Var); ok && fields[f] != nil && (anyPkg || f.Pkg().Path() != sp.Path) {
					fields[f].Written = true
				}
			}
		}
		for _, file := range sp.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						kv, keyed := elt.(*ast.KeyValueExpr)
						if keyed {
							write(kv.Key, true)
						} else if st, ok := info.Types[n].Type.Underlying().(*types.Struct); ok {
							for j := 0; j < st.NumFields(); j++ {
								if o := fields[st.Field(j)]; o != nil {
									o.Written = true
								}
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs, false)
					}
				case *ast.IncDecStmt:
					write(n.X, false)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X, false)
					}
				}
				return true
			})
		}
	}
	return opts, nil
}

// checkOptionAllow returns the unset options and the lint's findings: an
// unset option missing from allow, and an entry that is set now or no
// longer declared.
func checkOptionAllow(opts map[string]*option, allow map[string]string) (unset, problems []string) {
	for key, o := range opts {
		_, listed := allow[key]
		switch {
		case !o.Written:
			unset = append(unset, key)
			if !listed {
				problems = append(problems, fmt.Sprintf("unset option: %s (%s)", key, o.Pos))
			}
		case listed:
			problems = append(problems, fmt.Sprintf("stale option entry: %s is set now; delete the entry", key))
		}
	}
	for key := range allow {
		if opts[key] == nil {
			problems = append(problems, fmt.Sprintf("stale option entry: %s is not declared; delete the entry", key))
		}
	}
	sort.Strings(unset)
	sort.Strings(problems)
	return unset, problems
}

// lintOptions runs the option half of the lint over the module and returns
// its summary line and findings.
func lintOptions(module string) (string, []string, error) {
	fset := token.NewFileSet()
	pkgs, err := listPackages(fset, module)
	if err != nil {
		return "", nil, err
	}
	opts, err := checkOptions(fset, pkgs, importer.ForCompiler(fset, "source", nil))
	if err != nil {
		return "", nil, err
	}
	allow, err := readAllow(optionsFile)
	if err != nil {
		return "", nil, err
	}
	unset, problems := checkOptionAllow(opts, allow)
	return fmt.Sprintf("lint-reach: %d options, %d set by no program, %d allow-listed", len(opts), len(unset), len(allow)), problems, nil
}
