//go:build ignore

// lintdoc enforces the repo's documentation floor: every internal package
// must carry a package comment, and the cross-cutting infrastructure
// packages whose APIs other layers build on (internal/parallel,
// internal/obs, internal/fault, internal/surrogate, internal/ml/linear)
// must document every exported symbol. It also walks the top-level
// markdown docs (README.md, ARCHITECTURE.md, EXPERIMENTS.md, DESIGN.md,
// docs/*.md) and fails on relative links whose targets do not exist and
// on cited Test…, Fuzz… or Benchmark… names that are not a prefix of a
// function some _test.go file declares (a prefix, so that -run and -bench
// patterns such as 'BenchmarkUarch' stay valid).
// Used by check.sh; run it as
//
//	go run scripts/lintdoc.go
//
// It exits nonzero listing each violation.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// fullDocPackages must document every exported symbol, not just the
// package.
var fullDocPackages = map[string]bool{
	"internal/parallel":  true,
	"internal/obs":       true,
	"internal/fault":     true,
	"internal/surrogate": true,
	"internal/ml/linear": true,
}

func main() {
	var violations []string

	dirs := map[string]bool{}
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lintdoc:", err)
		os.Exit(1)
	}

	for dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lintdoc:", err)
			os.Exit(1)
		}
		for _, pkg := range pkgs {
			if !hasPackageDoc(pkg) {
				violations = append(violations, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
			}
			if fullDocPackages[filepath.ToSlash(dir)] {
				violations = append(violations, undocumentedExports(fset, pkg)...)
			}
		}
	}

	tests, err := testFuncs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lintdoc:", err)
		os.Exit(1)
	}
	docs, docViolations := checkMarkdown(tests)
	violations = append(violations, docViolations...)

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "lintdoc:", v)
		}
		os.Exit(1)
	}
	fmt.Printf("lintdoc: %d internal packages documented, %d markdown docs link- and test-name-checked\n", len(dirs), docs)
}

// mdLink matches inline markdown links [text](target). Reference-style
// links and autolinks are out of scope — the repo's docs use inline form.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// testName matches a cited test, fuzz target or benchmark name.
var testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)

// checkMarkdown verifies that every relative link in the top-level docs
// and docs/ resolves to an existing file or directory, and that every
// test name they cite is a prefix of one of tests. External schemes and
// pure fragments are skipped; a #fragment suffix on a relative target is
// stripped before the existence check.
func checkMarkdown(tests []string) (docs int, violations []string) {
	files := []string{"README.md", "ARCHITECTURE.md", "EXPERIMENTS.md", "DESIGN.md"}
	extra, _ := filepath.Glob("docs/*.md")
	files = append(files, extra...)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue // absent top-level docs are not an error
		}
		docs++
		for i, line := range strings.Split(string(b), "\n") {
			for _, name := range testName.FindAllString(line, -1) {
				if !slices.ContainsFunc(tests, func(t string) bool { return strings.HasPrefix(t, name) }) {
					violations = append(violations, fmt.Sprintf("%s:%d: cites %s, which no _test.go declares", f, i+1, name))
				}
			}
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "#") ||
					strings.HasPrefix(target, "mailto:") {
					continue
				}
				if i := strings.IndexByte(target, '#'); i >= 0 {
					target = target[:i]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(f), target)
				if _, err := os.Stat(resolved); err != nil {
					violations = append(violations, fmt.Sprintf("%s: broken relative link %q", f, m[1]))
				}
			}
		}
	}
	return docs, violations
}

// testFuncs lists the top-level functions the repo's _test.go files
// declare, skipping hidden and testdata directories.
func testFuncs() ([]string, error) {
	var names []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				names = append(names, fd.Name.Name)
			}
		}
		return nil
	})
	return names, err
}

// hasPackageDoc reports whether any file of the package carries a package
// comment.
func hasPackageDoc(pkg *ast.Package) bool {
	for _, f := range pkg.Files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return true
		}
	}
	return false
}

// undocumentedExports lists exported top-level declarations without a doc
// comment. Grouped var/const blocks count as documented when the block
// carries a comment.
func undocumentedExports(fset *token.FileSet, pkg *ast.Package) []string {
	var out []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s is undocumented", p.Filename, p.Line, kind, name))
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil {
					name := d.Name.Name
					if d.Recv != nil {
						name = recvName(d.Recv) + "." + name
					}
					report(d.Pos(), "func", name)
				}
			case *ast.GenDecl:
				blockDocumented := d.Doc != nil
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && s.Doc == nil && !blockDocumented {
							report(s.Pos(), "type", s.Name.Name)
						}
					case *ast.ValueSpec:
						if blockDocumented || s.Doc != nil || s.Comment != nil {
							continue
						}
						for _, n := range s.Names {
							if n.IsExported() {
								report(n.Pos(), "value", n.Name)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// recvName renders a method receiver's type name.
func recvName(fl *ast.FieldList) string {
	if len(fl.List) == 0 {
		return "?"
	}
	t := fl.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr:
			t = v.X
		case *ast.Ident:
			return v.Name
		default:
			return "?"
		}
	}
}
