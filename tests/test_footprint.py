"""What each entry point loads: inference never imports `numpy.random`,
and the symbolic commands never import NumPy at all.

pytest has imported NumPy already, so every check runs in a fresh
interpreter and asserts on that interpreter's `sys.modules`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import discoseq as dq

CHECKPOINT = Path(__file__).parents[1] / "bench" / "data" / "parse.ckpt"


def _run(script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(dq.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def lazy_numpy_random():
    # NumPy 1.x imports numpy.random with numpy itself
    script = "import sys, numpy\nprint('numpy.random' in sys.modules)\n"
    if _run(script).strip() == "True":
        pytest.skip("this NumPy imports numpy.random with numpy")


def test_inference_never_imports_numpy_random(tmp_path, lazy_numpy_random):
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("the dog arrived\nshe saw a big red car yesterday .\n",
                         encoding="utf-8")
    script = (
        "import os, sys\n"
        "import numpy as np\n"
        "import discoseq as dq\n"
        "from discoseq import cli\n"
        "from discoseq.neural import forward, load_checkpoint, predict\n"
        "checkpoint, sentences = sys.argv[1:]\n"
        "params, config = load_checkpoint(checkpoint)\n"
        "scheme = dq.parse_scheme(config.scheme)\n"
        "for line in open(sentences, encoding='utf-8'):\n"
        "    words = line.split()\n"
        "    for beam in (1, 10):\n"
        "        tokens = list(predict(params, config, words, beam_size=beam).tokens)\n"
        "    word_ids = np.array([config.word_to_id[word] for word in words])\n"
        "    token_ids = [config.token_to_id[str(token)] for token in tokens]\n"
        "    dist = forward(word_ids, token_ids, dq.trace(len(words), tokens, scheme),\n"
        "                   params, config)\n"
        "    assert dist.shape == (len(tokens) + 1, len(config.token_to_id))\n"
        "assert cli.main(['predict', '--checkpoint', checkpoint, '--in', sentences,\n"
        "                 '--out', os.devnull]) == 0\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    _run(script, str(CHECKPOINT), str(sentences))


def test_symbolic_commands_never_import_numpy(tmp_path):
    script = (
        "import os, sys\n"
        "import discoseq as dq\n"
        "from discoseq import cli\n"
        "directory = sys.argv[1]\n"
        "trees, tokens, rebuilt = (os.path.join(directory, name) for name in\n"
        "                          ('toy20.discbracket', 'tokens.jsonl', 'rebuilt.discbracket'))\n"
        "toy20 = dq.bundled('toy20.discbracket')\n"
        "dq.save_treebank(toy20, trees)\n"
        "scheme = ['--scheme', 'inorder+swap']\n"
        "for argv in (\n"
        "    ['linearize', *scheme, '--jsonl', '--in', trees, '--out', tokens],\n"
        "    ['delinearize', *scheme, '--tokens', tokens, '--out', rebuilt],\n"
        "    ['eval', '--json', '--gold', trees, '--pred', rebuilt],\n"
        "    ['stats', *scheme, '--in', trees],\n"
        "    ['roundtrip', *scheme, '--in', trees],\n"
        "    ['mask-trace', *scheme, '--tree', dq.emit_discbracket(toy20[0])],\n"
        "):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules\n"
    )
    _run(script, str(tmp_path))


def test_training_imports_numpy_random():
    script = (
        "import sys\n"
        "import discoseq as dq\n"
        "from discoseq.neural import train\n"
        "trees = dq.bundled('toy20.discbracket')[:2]\n"
        "result = train(trees, 'inorder+swap', epochs=1, d_model=8, n_heads=2,\n"
        "               n_layers=1, d_ff=16)\n"
        "assert len(result.history) == 1\n"
        "assert 'numpy.random' in sys.modules\n"
    )
    _run(script)
