#!/usr/bin/env python3
"""Seed-corpus generator for the tests/fuzz/ harnesses.

Writes one subdirectory per fuzz target (line_protocol/, spill_decoder/,
arff/, model_decoder/) under the output directory. The binary spill seeds are built to
the byte layout in docs/CACHE.md, with the format and suite versions
parsed out of the headers so the corpus cannot silently go stale; valid
seeds let the fuzzers (and the corpus-replay ctest) reach past header
rejection into the entry decoders.

Usage: make_corpus.py <output-dir>
"""

import os
import re
import struct
import sys

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK64 = (1 << 64) - 1


def constant_from(path, name):
    with open(os.path.join(REPO, path), encoding="utf-8") as handle:
        match = re.search(name + r"\s*=\s*(\d+)", handle.read())
    if not match:
        raise SystemExit(f"make_corpus: {name} not found in {path}")
    return int(match.group(1))


FORMAT_VERSION = constant_from("src/core/eval_cache.h",
                               "kEvalCacheFormatVersion")
SUITE_VERSION = constant_from("src/core/suite_version.h", "kSuiteVersion")


def fnv1a(data):
    digest = FNV_OFFSET
    for byte in data:
        digest = ((digest ^ byte) * FNV_PRIME) & MASK64
    return digest


def entry(mask_bits, bits_set, flags=0b111, seconds=0.25):
    packed = bytearray((mask_bits + 7) // 8)
    for bit in bits_set:
        packed[bit // 8] |= 1 << (bit % 8)
    body = struct.pack("<I", mask_bits) + bytes(packed)
    body += struct.pack("<B", flags)
    for value in (seconds, 0.1, -0.5, 0.9, 0.8, 0.7, 0.25):
        body += struct.pack("<d", value)
    body += struct.pack("<II", len(bits_set), mask_bits)
    return body


def cache_spill(entries, fingerprint=0, suite=SUITE_VERSION,
                version=FORMAT_VERSION, count=None, magic=b"DFSCACHE"):
    payload = b"".join(entries)
    header = magic
    header += struct.pack("<II", version, 0)
    header += struct.pack("<QQ", suite, fingerprint)
    header += struct.pack("<QQ", count if count is not None else len(entries),
                          fnv1a(payload))
    return header + payload


def registry_container(blobs, count=None, magic=b"DFSCREG1"):
    out = magic + struct.pack("<II", FORMAT_VERSION,
                              count if count is not None else len(blobs))
    for blob in blobs:
        out += struct.pack("<Q", len(blob)) + blob
    return out


# A depth-1 tree over `width` features that splits on `feature`.
def tree_text(feature=0, width=1):
    importances = " ".join("1" if f == feature else "0"
                           for f in range(width))
    return (f"tree v1\n2 2\n3\n{feature} 0.5 1 2 0.5\n"
            "-1 0 -1 -1 0.2\n-1 0 -1 -1 0.8\n"
            f"{width} {importances}\n")


# A forest whose members gather `features` (one list per member) into
# the trees in `trees`.
def forest_text(members):
    out = f"forest v1\n{len(members)} 2 0 1 7\n0.5 {len(members)}\n"
    for features, tree in members:
        out += f"{len(features)} " + " ".join(map(str, features)) + "\n"
        out += f"{len(tree)}\n{tree}"
    return out


def optimizer_text(forest):
    return ("dfs-optimizer v1\n100 3 0.25 99\n2\n"
            f"SFS(NR)\nmodel 0.5 {len(forest)}\n{forest}"
            "SBS(NR)\nconstant 1 1\n")


def write(directory, name, data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    with open(os.path.join(directory, name), "wb") as handle:
        handle.write(data)


def main():
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    out = sys.argv[1]

    d = os.path.join(out, "line_protocol")
    os.makedirs(d, exist_ok=True)
    write(d, "ping", '{"op":"ping"}\n')
    write(d, "stats", '{"op":"stats"}')
    write(d, "status", '{"op":"status","id":7}')
    write(d, "submit", '{"op":"submit","dataset":"adult","model":"LR",'
                       '"strategy":"auto","min_f1":0.7,"budget":5,'
                       '"max_features":0.5,"hpo":false,"seed":42}')
    write(d, "escapes", '{"op":"submit","dataset":"a\\"b\\\\c\\n"}')
    write(d, "bad_json", '{"op":"submit","dataset"')
    write(d, "bad_types", '{"op":42,"id":"seven","min_f1":"high"}')
    write(d, "huge_number", '{"op":"status","id":1e308}')
    write(d, "empty", "")
    write(d, "not_json", "GET / HTTP/1.1")

    d = os.path.join(out, "spill_decoder")
    os.makedirs(d, exist_ok=True)
    two = [entry(64, [0, 3, 17]), entry(64, [1, 2])]
    write(d, "valid_two_entries", cache_spill(two))
    write(d, "valid_empty", cache_spill([]))
    write(d, "wide_mask", cache_spill([entry(256, [0, 128, 255])]))
    write(d, "bad_magic", cache_spill(two, magic=b"NOTCACHE"))
    write(d, "stale_suite", cache_spill(two, suite=SUITE_VERSION + 1))
    write(d, "overclaimed_count", cache_spill(two, count=1 << 60))
    write(d, "truncated", cache_spill(two)[:-9])
    write(d, "header_only", cache_spill(two)[:48])
    write(d, "valid_registry",
          registry_container([cache_spill(two), cache_spill([entry(8, [2])],
                                                            fingerprint=9)]))
    write(d, "registry_overclaimed",
          registry_container([cache_spill(two)], count=0xFFFFFFFF))
    write(d, "registry_truncated",
          registry_container([cache_spill(two)])[:-5])

    d = os.path.join(out, "arff")
    os.makedirs(d, exist_ok=True)
    write(d, "valid", "\n".join([
        "% a minimal dataset the reader accepts end to end",
        "@RELATION toy",
        "@ATTRIBUTE age NUMERIC",
        "@ATTRIBUTE sensitive {0,1}",
        "@ATTRIBUTE colour {red,green,blue}",
        "@ATTRIBUTE class {no,yes}",
        "@DATA",
        "39,0,red,no",
        "45,1,'green',yes",
        "?,0,\"blue\",no",
        "",
    ]))
    write(d, "sparse_rejected", "\n".join([
        "@RELATION toy",
        "@ATTRIBUTE class {no,yes}",
        "@DATA",
        "{0 yes}",
        "",
    ]))
    write(d, "no_data_section",
          "@RELATION toy\n@ATTRIBUTE class {no,yes}\n")
    write(d, "ragged_rows", "\n".join([
        "@RELATION toy",
        "@ATTRIBUTE a NUMERIC",
        "@ATTRIBUTE class {no,yes}",
        "@DATA",
        "1,no,extra",
        "2",
        "",
    ]))
    write(d, "weird_bytes", b"@RELATION \xff\xfe\n@DATA\n\x00\x01\x02\n")
    d = os.path.join(out, "model_decoder")
    os.makedirs(d, exist_ok=True)
    forest = forest_text([([3], tree_text()), ([0, 2], tree_text(1, 2))])
    write(d, "valid_tree", tree_text(1, 3))
    write(d, "valid_forest", forest)
    write(d, "valid_optimizer", optimizer_text(forest))
    write(d, "tree_feature_past_width",
          "tree v1\n5 2\n3\n1000000 0.5 1 2 0.5\n-1 0 -1 -1 0.2\n"
          "-1 0 -1 -1 0.8\n1 1\n")
    write(d, "tree_feature_at_width", tree_text(1, 1))
    write(d, "forest_width_mismatch",
          forest_text([([0, 2, 5], tree_text(1, 2))]))
    write(d, "optimizer_feature_past_names",
          optimizer_text(forest_text([([1000000], tree_text())])))
    write(d, "truncated_optimizer", optimizer_text(forest)[:-40])
    print(f"make_corpus: wrote seeds under {out}")


if __name__ == "__main__":
    main()
