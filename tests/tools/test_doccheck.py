"""The docstring-coverage gate (repro.tools.doccheck)."""

import textwrap

from repro.tools.doccheck import DEFAULT_TARGETS, check_file, main


def _check(tmp_path, source: str) -> list[str]:
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(source))
    return check_file(path)


class TestCheckFile:
    def test_documented_module_is_clean(self, tmp_path):
        problems = _check(tmp_path, '''
            """Module doc."""

            class Widget:
                """Class doc."""

                def spin(self):
                    """Method doc."""


            def helper():
                """Function doc."""
        ''')
        assert problems == []

    def test_missing_module_docstring(self, tmp_path):
        problems = _check(tmp_path, "x = 1\n")
        assert len(problems) == 1
        assert "module has no docstring" in problems[0]

    def test_missing_function_and_class_docstrings(self, tmp_path):
        problems = _check(tmp_path, '''
            """Module doc."""

            class Widget:
                def spin(self):
                    return 1
        ''')
        assert any("class 'Widget'" in p for p in problems)
        assert any("function 'Widget.spin'" in p for p in problems)

    def test_private_names_are_exempt(self, tmp_path):
        problems = _check(tmp_path, '''
            """Module doc."""

            def _internal():
                return 1

            class _Hidden:
                pass
        ''')
        assert problems == []

    def test_nontrivial_init_needs_docstring_trivial_does_not(self, tmp_path):
        problems = _check(tmp_path, '''
            """Module doc."""

            class Stateful:
                """Doc."""

                def __init__(self):
                    self.x = 1

            class Protocolish:
                """Doc."""

                def __init__(self):
                    ...
        ''')
        assert len(problems) == 1
        assert "Stateful.__init__" in problems[0]

    def test_nested_definitions_are_exempt(self, tmp_path):
        problems = _check(tmp_path, '''
            """Module doc."""

            def outer():
                """Doc."""
                def inner():
                    return 1
                return inner
        ''')
        assert problems == []

    def test_skip_pragma(self, tmp_path):
        problems = _check(tmp_path, '''
            """Module doc."""

            def generated():  # doccheck: skip
                return 1
        ''')
        assert problems == []

    def test_problem_lines_carry_path_and_lineno(self, tmp_path):
        problems = _check(tmp_path, '''
            """Module doc."""


            def f():
                return 1
        ''')
        (problem,) = problems
        assert problem.startswith(str(tmp_path / "mod.py") + ":5:")


class TestMain:
    def test_default_targets_are_fully_documented(self, capsys):
        # The actual CI gate: src/repro/engine and src/repro/bdd/transfer.py
        # must stay at 100 % docstring coverage.
        assert main([]) == 0
        assert "OK" in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f():\n    return 1\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "module has no docstring" in out
        assert "function 'f'" in out

    def test_missing_target_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.py")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_directory_targets_recurse(self, tmp_path):
        pkg = tmp_path / "pkg" / "sub"
        pkg.mkdir(parents=True)
        (pkg / "a.py").write_text("x = 1\n")
        assert main([str(tmp_path / "pkg")]) == 1

    def test_default_target_set_is_pinned(self):
        assert DEFAULT_TARGETS == (
            "src/repro/engine", "src/repro/cache", "src/repro/serve",
            "src/repro/targets",
            "src/repro/bdd/transfer.py", "src/repro/httpjson.py",
        )
