"""Golden digests of the desk artifacts (tools/digest.py).

Each digest is the SHA-256 of an export, a suite report or an enumeration.
Set and dict iteration orders follow the hashes of tableaux, words and
shapes, so a changed hash shows here too, as a changed artifact.  A digest
may change only with a line in CHANGES.md naming the artifact and why.
"""

import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "digest", os.path.join(HERE, os.pardir, "tools", "digest.py"))
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)

GOLDEN = {
    "export_json:2,1:4":
        "bf64800a7769427e3b3c0d8a12584c92bd3a82d4ceab6b317ca41bde399e494e",
    "export_dot:2,1:4":
        "e7e23da541d87649b3de21ae4c980cd7f06744d3e42e65dc5169b1a1a2a9547d",
    "run_cactus:2,1:4":
        "d724aab25c43f99c18b16d0f769488219ac2470e448f3027a41ef43003703548",
    "run_braid:2,1:4":
        "a3f3731f2c697d765003ecf1018e8cc9953949876abe7fff802e017b639a7e3c",
    "export_json:3,1:3":
        "7d60627b600047fe78b307a717505904cde0e3624f07320fb674a51981f00c7f",
    "export_dot:3,1:3":
        "fb1c2f303d8665a08a16e09ef1eeda1da6ceed82ab4ce5467f12eac7e3d53917",
    "run_cactus:3,1:3":
        "64c3efd3658d5a79e37bedf7bb866fe649ec72716e351b99913e85cbad6b2faf",
    "run_braid:3,1:3":
        "dd2a7b21740dde448ec149ed77ee055d0e68dc88f4652f5aab5545b77b13da53",
    "export_json:3,1/1:3":
        "9108603994dde176df09680aa5b5c9d1f27466a145f4a402005d0c4daf5a2a73",
    "export_dot:3,1/1:3":
        "bb16cb5eebcba766fc4a942ba05f4df18f8bab852e95e4c6e50d017ebfc0c95a",
    "run_cactus:3,1/1:3":
        "0587e9f6bc545bbec2da5ecb67a4dd3f3ffdc5d7783792986e912009616ac643",
    "run_braid:3,1/1:3":
        "d12c8340560494abdefc542788468cc7801961ba475f0a92743f2ad912e90e0f",
    "export_json:5,3,1:4":
        "e61a5901317d2c44c602d2a1c40ed823479bfeeac81a343834fbebd2ed925dca",
    "export_dot:5,3,1:4":
        "dd9e3ded0e65499eeae2a67a6290474cdbe62a67836511d9d40719724fa12fd6",
    "run_cactus:5,3,1:4":
        "d6d7aeccfe81109305814effca84647a78dc28b3f576440e23807713c195c1e2",
    "run_braid:5,3,1:4":
        "830daadf847a819e81c7ce9c569317e69cd0e9aa89bb04d6e6552432d4e85c65",
    "export_json:6,4,1/3,1:4":
        "dc918f01b1fb10c14d3e038b5812b0ebd3d0bb47d59e1f529edd19d27f085541",
    "export_dot:6,4,1/3,1:4":
        "3cc6393a185c3f60d3c127a377de9837b4cffa1b17e68d58a1478d9c7ce038c6",
    "run_cactus:6,4,1/3,1:4":
        "a5ee79b194d846def5fe20b27c3323f1f241910b7ad59a1a5ea83f31e0b5259e",
    "run_braid:6,4,1/3,1:4":
        "1f37e0ed4517c5fd97997d8f01f6f9905122131d5d624d2f0c524bc215fb8cc2",
    "verify_cactus:2,1:4:less_one_edge":
        "fe5382f556b20cf5fdb0eeb3fd716804ab503d4458d81858f3d713dcff3ba80c",
    "run_structure":
        "a1794274d439a5549b0b7fd31e9ae059929dcacda9fc6ddbeb153118e24469df",
    "run_all:7":
        "878391b9ab1df231bbe7e3ac26f4b5d06ea47cfda22c43b8527a2e1218f41671",
    "enumerate:6,4,2:5":
        "84c7e27ca531120f413670600adca340366b77dc6bb37e0cb69d3af30f91b13b",
}


def test_desk_artifacts_match_their_golden_digests():
    assert digest.digests(digest.desk_artifacts()) == GOLDEN
