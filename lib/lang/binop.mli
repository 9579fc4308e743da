(** Operator arguments of skeletons at unboxed [int]/[float] payloads.

    An operator section ([( + )], [( * )], ...) or a [min]/[max] builtin passed
    to a skeleton is classified once into {!t}.  Both the scalar closures
    the compiled engine runs (fold merges, the generic [array_gen_mult]
    loop) and the monomorphic [array_gen_mult] block kernels derive from
    that variant, so each operator's semantics is defined in one place:
    integer division and modulo by zero raise the run-time error the
    generic path raises, and [min]/[max] answer the left operand on a tie,
    ordering floats by [Float.compare]. *)

type t = Add | Sub | Mul | Div | Mod | Min | Max

val of_value : Value.t -> t option
(** [Some op] for an operator section or a [min]/[max] builtin with nothing
    applied yet; [None] for every other value (user functions, partial
    applications, comparison operators). *)

val int : t -> int -> int -> int
(** The operator on ints. *)

val float : t -> (float -> float -> float) option
(** The operator on floats; [None] for [Mod], which has no float form. *)

val int_block : add:t -> mul:t -> int Skeletons.block option
(** A monomorphic block kernel for [(add, mul)] — (min, +) and (+, * ) —
    equal bit for bit to [Skeletons.generic_block ~add:(int add)
    ~mul:(int mul)]; [None] for pairs without one. *)

val float_block : add:t -> mul:t -> float Skeletons.block option
(** {!int_block} at floats. *)
