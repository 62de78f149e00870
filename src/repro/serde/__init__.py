"""C-strider-style serialization framework (paper sec. 9)."""

from .codegen import CodeGenerator, generate_module, load_generated
from .ctypes_model import (
    Array,
    CString,
    CType,
    Field,
    Pointer,
    Primitive,
    SizedBuffer,
    Struct,
    TaggedUnion,
    TypeRegistry,
)
from .framing import SavedData, Serializer, decode_generic, encode_generic
from .traverse import leaf_paths, visit

__all__ = [
    "Array",
    "CString",
    "CType",
    "CodeGenerator",
    "Field",
    "Pointer",
    "Primitive",
    "SavedData",
    "Serializer",
    "SizedBuffer",
    "Struct",
    "TaggedUnion",
    "TypeRegistry",
    "decode_generic",
    "encode_generic",
    "generate_module",
    "leaf_paths",
    "load_generated",
    "visit",
]
