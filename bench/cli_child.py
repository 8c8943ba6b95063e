"""One cold ``morley`` command: ``python3 cli_child.py [--trace-out PATH] ARGS...``.

Runs ``morley.cli.main(ARGS)`` and exits with its code, like the
installed ``morley`` script.  With ``--trace-out`` it records spans
around the import and every traced layer call and writes them to PATH.
"""

import sys

if len(sys.argv) > 2 and sys.argv[1] == "--trace-out":
    from tracing import Tracer

    tracer = Tracer()
    tracer.active = True
    with tracer.span("cli.import"):
        import morley.cli
    tracer.install()
    try:
        code = morley.cli.main(sys.argv[3:])
    finally:
        tracer.dump(sys.argv[2])
else:
    import morley.cli

    code = morley.cli.main(sys.argv[1:])
sys.exit(code)
