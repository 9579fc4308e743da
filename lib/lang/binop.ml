(* Operator arguments of skeletons at unboxed int/float payloads.

   A skeleton's functional argument that is an operator section or the
   min/max builtin is classified once into [t]; the scalar closures (fold
   merges, generic gen_mult) and the monomorphic gen_mult block kernels are
   both derived from that variant and from the scalar functions below, so
   the operators' semantics are written down exactly once. *)

open Value

type t = Add | Sub | Mul | Div | Mod | Min | Max

let of_value = function
  | VFun { fv_target = `Op op; fv_applied = [] } -> (
      match op with
      | "+" -> Some Add
      | "-" -> Some Sub
      | "*" -> Some Mul
      | "/" -> Some Div
      | "%" -> Some Mod
      | _ -> None)
  | VFun { fv_target = `Builtin "min"; fv_applied = [] } -> Some Min
  | VFun { fv_target = `Builtin "max"; fv_applied = [] } -> Some Max
  | _ -> None

(* min/max answer the LEFT operand on a tie, as the generic builtins do;
   floats are ordered by Float.compare (NaN below every number and equal to
   itself, -0.0 equal to +0.0). *)
let[@inline] imin (a : int) b = if a <= b then a else b
let[@inline] imax (a : int) b = if a >= b then a else b
let[@inline] fmin (a : float) b = if Float.compare a b <= 0 then a else b
let[@inline] fmax (a : float) b = if Float.compare a b >= 0 then a else b

let int = function
  | Add -> ( + )
  | Sub -> ( - )
  | Mul -> ( * )
  | Div -> fun a b -> if b = 0 then rte "division by zero" else a / b
  | Mod -> fun a b -> if b = 0 then rte "modulo by zero" else a mod b
  | Min -> imin
  | Max -> imax

let float = function
  | Add -> Some ( +. )
  | Sub -> Some ( -. )
  | Mul -> Some ( *. )
  | Div -> Some ( /. )
  | Mod -> None
  | Min -> Some fmin
  | Max -> Some fmax

(* Block kernels: Skeletons.generic_block's loop, instantiated.  Same i-k-j
   order and the same [c <- add c (mul a b)] operand order as the generic
   loop (the Skeletons.block contract), but first-order and over flat
   unboxed arrays: no closure call, no boxed float, no generic array
   access per multiply-add. *)

let int_min_plus ~bs (a : int array) (b : int array) (c : int array) =
  for i = 0 to bs - 1 do
    let ci = i * bs in
    for k = 0 to bs - 1 do
      let aik = a.(ci + k) and bk = k * bs in
      for j = 0 to bs - 1 do
        c.(ci + j) <- imin c.(ci + j) (aik + b.(bk + j))
      done
    done
  done

let int_plus_times ~bs (a : int array) (b : int array) (c : int array) =
  for i = 0 to bs - 1 do
    let ci = i * bs in
    for k = 0 to bs - 1 do
      let aik = a.(ci + k) and bk = k * bs in
      for j = 0 to bs - 1 do
        c.(ci + j) <- c.(ci + j) + (aik * b.(bk + j))
      done
    done
  done

let float_min_plus ~bs (a : float array) (b : float array) (c : float array) =
  for i = 0 to bs - 1 do
    let ci = i * bs in
    for k = 0 to bs - 1 do
      let aik = a.(ci + k) and bk = k * bs in
      for j = 0 to bs - 1 do
        c.(ci + j) <- fmin c.(ci + j) (aik +. b.(bk + j))
      done
    done
  done

let float_plus_times ~bs (a : float array) (b : float array)
    (c : float array) =
  for i = 0 to bs - 1 do
    let ci = i * bs in
    for k = 0 to bs - 1 do
      let aik = a.(ci + k) and bk = k * bs in
      for j = 0 to bs - 1 do
        c.(ci + j) <- c.(ci + j) +. (aik *. b.(bk + j))
      done
    done
  done

let int_block ~add ~mul : int Skeletons.block option =
  match (add, mul) with
  | Min, Add -> Some int_min_plus
  | Add, Mul -> Some int_plus_times
  | _ -> None

let float_block ~add ~mul : float Skeletons.block option =
  match (add, mul) with
  | Min, Add -> Some float_min_plus
  | Add, Mul -> Some float_plus_times
  | _ -> None
