"""Converters from dataset-native formats to the EVS1 container.

These are offline preparation tools: the engine core only reads EVS1
files listed in a manifest.  Each module decodes one benchmark into
labeled streams and hands them to ``eventio.write_dataset``, which writes
the files and the manifest.  Their one command line is

    lsmkit convert-dataset {nmnist,shd,dvsgesture} <raw_dir> <out_dir> [--limit N]

Raw downloads are never fetched here; see the README for dataset sources.
"""
