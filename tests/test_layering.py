import json
import os
import subprocess
import sys
from pathlib import Path

import ortho_lora

SRC = Path(ortho_lora.__file__).resolve().parent.parent


def test_config_and_adapter_import_none_of_the_training_modules():
    # config and adapter read files; the model, surgery, tasks and trainer modules build on them
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys, ortho_lora.config, ortho_lora.adapter; "
         "print(json.dumps(sorted(m for m in sys.modules if m.startswith('ortho_lora'))))"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True)
    loaded = set(json.loads(done.stdout))
    assert {"ortho_lora.config", "ortho_lora.adapter"} <= loaded
    assert not loaded & {f"ortho_lora.{name}" for name in ("model", "surgery", "tasks", "trainer")}
