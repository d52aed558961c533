//go:build ignore

// lintmaporder flags floating-point accumulation in map order: a +=, -=
// or *= whose operand is a float, inside the body of a range over a map.
// Map iteration order changes from run to run and float arithmetic is not
// associative, so such a sum can differ between identical runs; this is
// how fig7.mean_residency and guardrail.ppw.guarded once drifted. Iterate
// the keys in sorted order instead. It type-checks the non-test files of
// every package under the given roots (internal and cmd by default) from
// source. Used by check.sh; run it as
//
//	go run scripts/lintmaporder.go [root...]
//
// It exits nonzero listing each finding.
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
)

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"internal", "cmd"}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var findings []string
	pkgs := 0
	for _, root := range roots {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			bp, err := build.ImportDir(dir, 0)
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			if err != nil {
				return err
			}
			found, err := lintPackage(fset, imp, dir, bp.GoFiles)
			if err != nil {
				return err
			}
			findings = append(findings, found...)
			pkgs++
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "lintmaporder:", err)
			os.Exit(1)
		}
	}
	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, "lintmaporder:", f)
		}
		os.Exit(1)
	}
	fmt.Printf("lintmaporder: %d packages free of float accumulation in map order\n", pkgs)
}

// lintPackage type-checks one package's files and returns its findings.
func lintPackage(fset *token.FileSet, imp types.Importer, dir string, names []string) ([]string, error) {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(dir, fset, files, info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", dir, err)
	}
	var findings []string
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
				return true
			}
			// The body's walk covers any map range nested in it, so the
			// outer walk stops here and reports each site once.
			ast.Inspect(rs.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok {
					return true
				}
				switch as.Tok {
				case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
					if isFloat(info.TypeOf(as.Lhs[0])) {
						findings = append(findings, fmt.Sprintf("%s: float %s inside a range over a map",
							fset.Position(as.Pos()), as.Tok))
					}
				}
				return true
			})
			return false
		})
	}
	return findings, nil
}

// isFloat reports whether t is a floating-point type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
