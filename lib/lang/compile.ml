(* Compile-to-closures execution engine: "translation by instantiation",
   in process.

   Runs after typechecking (and normally after Instantiate.program, whose
   output is first-order).  Each function body is translated ONCE into a
   tree of OCaml closures:

     - variables become integer slots into a [Value.t array] frame instead
       of assoc-list lookups;
     - struct fields resolve to positional indices recorded by the
       typechecker (with a cheap name check and a search fallback);
     - binary operators are specialized at compile time (no string
       dispatch on the hot path);
     - call targets and arities are resolved at compile time: saturated
       calls invoke the target closure directly, and currying machinery is
       only emitted for genuinely partial or dynamic applications.

   Cost-accounting contract: the reference interpreter bumps
   [st.pending_ops] once per expression node evaluated and flushes before
   every statement and every array_* collective.  Compiled code must leave
   the SAME counter value at every flush point, so simulated clocks, Stats
   and traces are bit-identical between engines.  Node counts of call-free,
   branch-free subtrees are pre-summed at compile time ([ops = Some n]) and
   added with one increment; any subtree that may flush mid-evaluation
   (calls) or evaluate children conditionally (&&, ||, ?:) stays dynamic
   and bumps at its interpreter-defined position. *)

open Value

type frame = Value.t array

type ecode = {
  ops : int option;
      (* [Some n]: call-free subtree of n nodes; [run] does NOT bump
         pending_ops — the consumer adds n.  [None]: [run] bumps its own
         nodes internally. *)
  run : Interp.state -> frame -> Value.t;
}

type scode = Interp.state -> frame -> unit

type cfn = {
  c_arity : int;
  (* mutable so recursive / forward references patch through the table;
     read at call time *)
  mutable c_size : int;  (* frame slots of the compiled body *)
  mutable c_ix_safe : bool;
      (* body provably never assigns through an Index subscript, so a
         skeleton element loop may lend it the iteration's scratch index
         without a private copy (see [stmt_writes_index]) *)
  mutable c_run : Interp.state -> frame -> Value.t;
      (* run the body on a caller-built frame (specialised call sites fill
         slots directly, skipping the argument list) *)
  mutable c_invoke : Interp.state -> Value.t list -> Value.t;
}

type t = {
  cfuncs : (string, cfn) Hashtbl.t;
  tyenv : Typecheck.env;
  specialize : bool;
      (* payload specialisation: intercept saturated skeleton calls and run
         them over unboxed int/float partitions (--no-specialize turns the
         compiled engine back into PR 3's generic-payload version) *)
}

type fctx = {
  prog : t;
  scratch : Interp.state;
      (* sequential state over the same program: compile-time evaluation
         of default values and backend-independent constants *)
  mutable nslots : int;
}

let known n run = { ops = Some n; run }
let dyn run = { ops = None; run }

let seal c =
  match c.ops with
  | None -> c.run
  | Some n ->
      fun st f ->
        st.Interp.pending_ops <- st.Interp.pending_ops + n;
        c.run st f

let bump st n = st.Interp.pending_ops <- st.Interp.pending_ops + n

(* One combinator for single-child nodes ([g] must be pure w.r.t. the
   pending counter). *)
let combine1 ce g =
  match ce.ops with
  | Some n -> known (1 + n) (fun st f -> g (ce.run st f))
  | None ->
      let r = seal ce in
      dyn (fun st f ->
          bump st 1;
          g (r st f))

(* Whether a body contains an assignment through an Index subscript
   (ix[i] = ...) — the only operation that mutates an Index array in place.
   Every other boundary copies ([Value.copy] on declarations, assignments,
   parameter passing and returns), so a function whose body is free of
   subscript assignment can be lent a skeleton iteration's scratch index
   without a private copy: it can neither mutate nor retain it. *)
let rec expr_writes_index (e : Ast.expr) =
  match e.Ast.desc with
  | Ast.Assign ({ Ast.desc = Ast.Idx _; _ }, _) -> true
  | Ast.Int _ | Ast.Float _ | Ast.Str _ | Ast.Chr _ | Ast.Var _
  | Ast.OpSection _ ->
      false
  | Ast.Call (f, args) ->
      expr_writes_index f || List.exists expr_writes_index args
  | Ast.Binop (_, a, b) | Ast.Assign (a, b) | Ast.Idx (a, b) ->
      expr_writes_index a || expr_writes_index b
  | Ast.Unop (_, a) | Ast.Field (a, _) | Ast.Arrow (a, _) | Ast.Deref a
  | Ast.New a ->
      expr_writes_index a
  | Ast.ArrayLit es -> List.exists expr_writes_index es
  | Ast.Cond (a, b, c) ->
      expr_writes_index a || expr_writes_index b || expr_writes_index c

let rec stmt_writes_index = function
  | Ast.SExpr e -> expr_writes_index e
  | Ast.SDecl (_, _, init) ->
      Option.fold ~none:false ~some:expr_writes_index init
  | Ast.SIf (c, a, b) ->
      expr_writes_index c
      || List.exists stmt_writes_index a
      || List.exists stmt_writes_index b
  | Ast.SWhile (c, b) ->
      expr_writes_index c || List.exists stmt_writes_index b
  | Ast.SFor (i, c, s, b) ->
      Option.fold ~none:false ~some:stmt_writes_index i
      || Option.fold ~none:false ~some:expr_writes_index c
      || Option.fold ~none:false ~some:expr_writes_index s
      || List.exists stmt_writes_index b
  | Ast.SReturn e -> Option.fold ~none:false ~some:expr_writes_index e
  | Ast.SBreak | Ast.SContinue -> false
  | Ast.SBlock b -> List.exists stmt_writes_index b

(* ---------------- runtime application (currying fallback) -------------- *)

let rec rt_apply prog st v args =
  match v with
  | VFun f -> rt_apply_fun prog st f args
  | v when args = [] -> v
  | v -> rte "cannot apply %s" (describe v)

and rt_apply_fun prog st f args =
  let supplied = f.fv_applied @ args in
  let arity =
    match f.fv_target with
    | `Op _ -> 2
    | `User name -> (
        match Hashtbl.find_opt prog.cfuncs name with
        | Some fn -> fn.c_arity
        | None -> rte "undefined function %s" name)
    | `Builtin name -> (
        match Typecheck.builtin_arity name with
        | Some n -> n
        | None -> rte "unknown builtin %s" name)
  in
  let nsupplied = List.length supplied in
  if nsupplied < arity then VFun { f with fv_applied = supplied }
  else if nsupplied > arity then
    let now, later = Interp.split_at arity supplied in
    rt_apply prog st (rt_invoke prog st f.fv_target now) later
  else rt_invoke prog st f.fv_target supplied

and rt_invoke prog st target args =
  match target with
  | `Op op -> (
      match args with
      | [ a; b ] -> Interp.binop op a b
      | _ -> rte "operator section applied to %d args" (List.length args))
  | `User name -> (
      match Hashtbl.find_opt prog.cfuncs name with
      | None -> rte "undefined function %s" name
      | Some fn -> fn.c_invoke st args)
  | `Builtin name -> Interp.builtin st ~apply:(rt_apply prog st) name args

(* ---------------- operator specialization ---------------- *)

(* Fast paths for the concrete representations; every fallthrough lands in
   the shared Interp implementation so error messages stay identical. *)
let op_fn op : Value.t -> Value.t -> Value.t =
  match op with
  | "+" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> VInt (x + y)
        | VFloat x, VFloat y -> VFloat (x +. y)
        | _ -> Interp.arith "+" a b)
  | "-" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> VInt (x - y)
        | VFloat x, VFloat y -> VFloat (x -. y)
        | _ -> Interp.arith "-" a b)
  | "*" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> VInt (x * y)
        | VFloat x, VFloat y -> VFloat (x *. y)
        | _ -> Interp.arith "*" a b)
  | "/" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y ->
            if y = 0 then rte "division by zero" else VInt (x / y)
        | VFloat x, VFloat y -> VFloat (x /. y)
        | _ -> Interp.arith "/" a b)
  | "%" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y ->
            if y = 0 then rte "modulo by zero" else VInt (x mod y)
        | _ -> Interp.arith "%" a b)
  | "==" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> VInt (if x = y then 1 else 0)
        | _ -> VInt (if Interp.equal_values a b then 1 else 0))
  | "!=" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> VInt (if x <> y then 1 else 0)
        | _ -> VInt (if Interp.equal_values a b then 0 else 1))
  | "<" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> VInt (if x < y then 1 else 0)
        | _ -> VInt (if Interp.compare_values a b < 0 then 1 else 0))
  | ">" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> VInt (if x > y then 1 else 0)
        | _ -> VInt (if Interp.compare_values a b > 0 then 1 else 0))
  | "<=" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> VInt (if x <= y then 1 else 0)
        | _ -> VInt (if Interp.compare_values a b <= 0 then 1 else 0))
  | ">=" -> (
      fun a b ->
        match (a, b) with
        | VInt x, VInt y -> VInt (if x >= y then 1 else 0)
        | _ -> VInt (if Interp.compare_values a b >= 0 then 1 else 0))
  | op -> fun a b -> Interp.binop op a b

(* Pure scalar builtins, resolved at the call site: the same results and
   the same error text as the corresponding [Interp.builtin] arms, minus
   the argument-list cons and the dispatcher's string match (gauss's pivot
   fold calls fabs once per element).  None of these flush pending work,
   so their node counts pre-sum like any other flush-free subtree. *)
let bad_args name v =
  rte "builtin %s: bad arguments (%s)" name (describe v)

let scalar_builtin_1 = function
  | "abs" ->
      Some (function VInt n -> VInt (abs n) | v -> bad_args "abs" v)
  | "fabs" ->
      Some
        (function VFloat f -> VFloat (Float.abs f) | v -> bad_args "fabs" v)
  | "sqrt" ->
      Some (function VFloat f -> VFloat (sqrt f) | v -> bad_args "sqrt" v)
  | "log2" ->
      Some
        (function
          | VInt n ->
              let rec go k pow = if pow >= n then k else go (k + 1) (2 * pow) in
              VInt (go 0 1)
          | v -> bad_args "log2" v)
  | "itof" ->
      Some
        (function
          | VInt n -> VFloat (float_of_int n) | v -> bad_args "itof" v)
  | "ftoi" ->
      Some
        (function
          | VFloat f -> VInt (int_of_float f) | v -> bad_args "ftoi" v)
  | _ -> None

let scalar_builtin_2 = function
  | "min" ->
      Some (fun a b -> if Interp.compare_values a b <= 0 then a else b)
  | "max" ->
      Some (fun a b -> if Interp.compare_values a b >= 0 then a else b)
  | _ -> None

(* ---------------- payload-specialised skeleton calls ----------------

   The paper's "translation by instantiation" carried into the data plane:
   after typecheck + instantiation every frontend pardata has a statically
   known element type, so a saturated skeleton call over int/double
   elements can run on flat unboxed partitions (Value.DInt/DFloat) with its
   argument functions compiled to unboxed closures — no [Value.t] allocated
   per element.  Interception is decided per call site at compile time
   (from the typechecker's [inst] annotation where the payload choice needs
   it); the resulting handler still re-checks the run-time payload kinds
   and falls back to the generic [Interp.builtin] dispatcher whenever a
   function value or payload defeats it (arrays created through curried
   fallback paths stay generic, struct/pointer elements stay boxed).

   The cost contract is untouched: handlers flush at the same point the
   generic dispatcher flushes, charge through the same [Skeletons] entry
   points with the same op counts and byte sizes, and specialised
   argument-function closures run the very same compiled bodies via
   [c_run] (same pending_ops bumps, same flush points) — only the boxing
   at the call boundary differs.  [test/test_engines.ml] pins makespans,
   Stats and traces bit-identical across engines × specialisation. *)

let box_i n = VInt n
let box_f x = VFloat x

(* A user function saturated by exactly [extra] more arguments, as a target
   for a direct-frame invoker; None sends the caller to the generic path. *)
let user_target prog fv ~extra =
  match fv with
  | VFun { fv_target = `User name; fv_applied } -> (
      match Hashtbl.find_opt prog.cfuncs name with
      | Some fn when List.length fv_applied + extra = fn.c_arity ->
          Some (fn, Array.of_list fv_applied)
      | _ -> None)
  | _ -> None

(* Element function of map/fold-conv: last two parameters are (element,
   Index).  The frame is built directly — applied arguments and boxed
   element mirror [c_invoke]'s per-argument [Value.copy] (scalar boxes are
   fresh, so they need no copy).  The Index argument: the generic path
   hands the callee a private copy of the iteration's scratch index; when
   the body provably never writes through an Index ([c_ix_safe]) the
   scratch is lent directly. *)
let elem_fn2 prog st fv ~box ~unbox =
  match user_target prog fv ~extra:2 with
  | None -> None
  | Some (fn, appl) ->
      let na = Array.length appl in
      let size = fn.c_size and ix_safe = fn.c_ix_safe in
      Some
        (fun v ix ->
          let frame = Array.make size VUnit in
          for i = 0 to na - 1 do
            frame.(i) <- Value.copy appl.(i)
          done;
          frame.(na) <- box v;
          frame.(na + 1) <- VIndex (if ix_safe then ix else Array.copy ix);
          unbox (fn.c_run st frame))

(* Init function of array_create: Index -> element. *)
let elem_fn1 prog st fv ~unbox =
  match user_target prog fv ~extra:1 with
  | None -> None
  | Some (fn, appl) ->
      let na = Array.length appl in
      let size = fn.c_size and ix_safe = fn.c_ix_safe in
      Some
        (fun ix ->
          let frame = Array.make size VUnit in
          for i = 0 to na - 1 do
            frame.(i) <- Value.copy appl.(i)
          done;
          frame.(na) <- VIndex (if ix_safe then ix else Array.copy ix);
          unbox (fn.c_run st frame))

(* A user function saturated by two more arguments as a binary combining
   function on a direct frame; [box]/[unbox] convert at the boundary (fresh
   scalar boxes, or [Value.copy] as [c_invoke] copies each argument). *)
let user_fn2 prog st fv ~box ~unbox =
  match user_target prog fv ~extra:2 with
  | None -> None
  | Some (fn, appl) ->
      let na = Array.length appl in
      let size = fn.c_size in
      Some
        (fun a b ->
          let frame = Array.make size VUnit in
          for i = 0 to na - 1 do
            frame.(i) <- Value.copy appl.(i)
          done;
          frame.(na) <- box a;
          frame.(na + 1) <- box b;
          unbox (fn.c_run st frame))

(* Binary combining functions (fold merge, gen_mult add/mul) at unboxed
   int/float.  Operator sections and min/max are classified by {!Binop},
   which keeps the generic semantics exactly (same division-by-zero
   messages, same tie-breaking: min/max answer the LEFT operand on
   equality). *)
let int_binop prog st fv : (int -> int -> int) option =
  match Binop.of_value fv with
  | Some op -> Some (Binop.int op)
  | None -> user_fn2 prog st fv ~box:box_i ~unbox:as_int

let float_binop prog st fv : (float -> float -> float) option =
  match Binop.of_value fv with
  | Some op -> Binop.float op
  | None -> user_fn2 prog st fv ~box:box_f ~unbox:as_float

(* Value-level binary combining function: still boxed, but skips the
   currying machinery (used for struct-accumulator fold merges and
   generic-payload gen_mult). *)
let value_binop prog st fv : (Value.t -> Value.t -> Value.t) option =
  match fv with
  | VFun { fv_target = `Op op; fv_applied = [] } -> Some (op_fn op)
  | VFun { fv_target = `Builtin ("min" | "max" as name); fv_applied = [] } ->
      scalar_builtin_2 name
  | _ -> user_fn2 prog st fv ~box:Value.copy ~unbox:Fun.id

(* The local block product of array_gen_mult: the monomorphic kernel
   [kernel] offers when both arguments are operators it covers, else the
   generic loop over the combining closures [binop] builds; None sends the
   caller to the generic dispatcher. *)
let gen_mult_block ~kernel ~binop add mul =
  let k =
    match (Binop.of_value add, Binop.of_value mul) with
    | Some add, Some mul -> kernel ~add ~mul
    | _ -> None
  in
  if Option.is_some k then k
  else
    match (binop add, binop mul) with
    | Some add, Some mul -> Some (Skeletons.generic_block ~add ~mul)
    | _ -> None

(* Compile-time interception of a saturated skeleton call.  Returns a
   handler over the already-evaluated arguments (the call-site wrapper
   flushes pending scalar work first, exactly where the generic dispatcher
   flushes), or None to use the generic dispatcher unconditionally. *)
let specialize_skeleton prog (h : Ast.expr) name :
    (Interp.state -> Value.t list -> Value.t) option =
  let kind v =
    match List.assoc_opt v h.Ast.inst with
    | Some t -> (
        match Typecheck.expand prog.tyenv t with
        | Ast.TInt -> Some `I
        | Ast.TFloat -> Some `F
        | _ -> None)
    | None -> None
  in
  let generic st argv =
    Interp.builtin st ~apply:(rt_apply prog st) name argv
  in
  match name with
  | "array_create" ->
      (* the one call where the payload choice must come from the static
         element type: the init function returns a bare value *)
      Some
        (fun st argv ->
          match argv with
          | [ VInt dim; VIndex size; VIndex _; VIndex _; init; VInt distr ]
            -> (
              let mk : 'e. ('e Darray.t -> darray) -> (Index.t -> 'e) ->
                  Value.t =
               fun wrap f ->
                let ctx = Interp.ctx_of st in
                if Array.length size <> dim then rte "array_create: bad Size";
                VDarray
                  (wrap
                     (Skeletons.create ctx ~gsize:(Array.copy size)
                        ~distr:(Interp.distr_of distr) f))
              in
              match kind "t" with
              | Some `I -> (
                  match elem_fn1 prog st init ~unbox:as_int with
                  | Some f -> mk (fun a -> DInt a) f
                  | None -> generic st argv)
              | Some `F -> (
                  match elem_fn1 prog st init ~unbox:as_float with
                  | Some f -> mk (fun a -> DFloat a) f
                  | None -> generic st argv)
              | None -> (
                  match elem_fn1 prog st init ~unbox:Value.copy with
                  | Some f -> mk (fun a -> DGen a) f
                  | None -> generic st argv))
          | argv -> generic st argv)
  | "array_create_const" ->
      (* constant-element variant (produced by the fusion pass): payload
         choice from the static element type, no initialiser function at
         all *)
      Some
        (fun st argv ->
          match argv with
          | [ VInt dim; VIndex size; VIndex _; VIndex _; cv; VInt distr ] ->
              let mk : 'e. ('e Darray.t -> darray) -> (Index.t -> 'e) ->
                  Value.t =
               fun wrap f ->
                let ctx = Interp.ctx_of st in
                if Array.length size <> dim then
                  rte "array_create_const: bad Size";
                VDarray
                  (wrap
                     (Skeletons.create ctx ~gsize:(Array.copy size)
                        ~distr:(Interp.distr_of distr) f))
              in
              (match kind "t" with
               | Some `I ->
                   let n = as_int cv in
                   mk (fun a -> DInt a) (fun _ -> n)
               | Some `F ->
                   let x = as_float cv in
                   mk (fun a -> DFloat a) (fun _ -> x)
               | None -> mk (fun a -> DGen a) (fun _ -> Value.copy cv))
          | argv -> generic st argv)
  | "array_map" ->
      (* run-time payload kinds fully determine the boxing *)
      Some
        (fun st argv ->
          match argv with
          | [ fv; VDarray src; VDarray dst ] -> (
              let same :
                  'e. ('e -> Index.t -> 'e) option -> 'e Darray.t ->
                  'e Darray.t -> Value.t =
               fun g s d ->
                match g with
                | Some g ->
                    Skeletons.map (Interp.ctx_of st) g s d;
                    VUnit
                | None -> generic st argv
              in
              let into :
                  'a 'b. ('a -> Index.t -> 'b) option -> 'a Darray.t ->
                  'b Darray.t -> Value.t =
               fun g s d ->
                match g with
                | Some g ->
                    Skeletons.map_into (Interp.ctx_of st) g s d;
                    VUnit
                | None -> generic st argv
              in
              let fn2 ~box ~unbox = elem_fn2 prog st fv ~box ~unbox in
              match (src, dst) with
              | DInt s, DInt d -> same (fn2 ~box:box_i ~unbox:as_int) s d
              | DFloat s, DFloat d ->
                  same (fn2 ~box:box_f ~unbox:as_float) s d
              | DGen s, DGen d ->
                  same (fn2 ~box:Value.copy ~unbox:Value.copy) s d
              | DInt s, DFloat d -> into (fn2 ~box:box_i ~unbox:as_float) s d
              | DFloat s, DInt d -> into (fn2 ~box:box_f ~unbox:as_int) s d
              | DGen s, DInt d -> into (fn2 ~box:Value.copy ~unbox:as_int) s d
              | DGen s, DFloat d ->
                  into (fn2 ~box:Value.copy ~unbox:as_float) s d
              | DInt s, DGen d -> into (fn2 ~box:box_i ~unbox:Value.copy) s d
              | DFloat s, DGen d ->
                  into (fn2 ~box:box_f ~unbox:Value.copy) s d)
          | argv -> generic st argv)
  | "array_fold" ->
      let acc_kind = kind "t2" in
      Some
        (fun st argv ->
          match argv with
          | [ conv; fv; VDarray a ] -> (
              (* scalar accumulators fold fully unboxed (acc wire size is 4,
                 matching Value.wire_bytes on VInt/VFloat and the empty-
                 partition elem_bytes fallback); struct accumulators keep a
                 boxed acc but still run conv/merge on direct frames *)
              let go :
                  'e. box:('e -> Value.t) -> 'e Darray.t -> Value.t =
               fun ~box a ->
                let fn2 unbox = elem_fn2 prog st conv ~box ~unbox in
                let scalar =
                  match acc_kind with
                  | Some `I -> (
                      match (fn2 as_int, int_binop prog st fv) with
                      | Some c, Some f -> Some (`IFold (c, f))
                      | _ -> None)
                  | Some `F -> (
                      match (fn2 as_float, float_binop prog st fv) with
                      | Some c, Some f -> Some (`FFold (c, f))
                      | _ -> None)
                  | None -> None
                in
                match scalar with
                | Some (`IFold (c, f)) ->
                    VInt
                      (Skeletons.fold (Interp.ctx_of st)
                         ~acc_bytes_of:(fun _ -> 4)
                         ~conv:c f a)
                | Some (`FFold (c, f)) ->
                    VFloat
                      (Skeletons.fold (Interp.ctx_of st)
                         ~acc_bytes_of:(fun _ -> 4)
                         ~conv:c f a)
                | None -> (
                    match fn2 Value.copy with
                    | Some c ->
                        let g =
                          match value_binop prog st fv with
                          | Some g -> g
                          | None -> fun x y -> rt_apply prog st fv [ x; y ]
                        in
                        Skeletons.fold (Interp.ctx_of st)
                          ~acc_bytes_of:Value.wire_bytes ~conv:c g a
                    | None -> generic st argv)
              in
              match a with
              | DInt a -> go ~box:box_i a
              | DFloat a -> go ~box:box_f a
              | DGen a -> go ~box:Value.copy a)
          | argv -> generic st argv)
  | "array_gen_mult" ->
      Some
        (fun st argv ->
          match argv with
          | [ VDarray a; VDarray b; add; mul; VDarray c ] -> (
              let run :
                  'e. 'e Skeletons.block option -> 'e Darray.t ->
                  'e Darray.t -> 'e Darray.t -> Value.t =
               fun block a b c ->
                match block with
                | Some block ->
                    Skeletons.gen_mult (Interp.ctx_of st) ~block a b c;
                    VUnit
                | None -> generic st argv
              in
              match (a, b, c) with
              | DInt a, DInt b, DInt c ->
                  run
                    (gen_mult_block ~kernel:Binop.int_block
                       ~binop:(int_binop prog st) add mul)
                    a b c
              | DFloat a, DFloat b, DFloat c ->
                  run
                    (gen_mult_block ~kernel:Binop.float_block
                       ~binop:(float_binop prog st) add mul)
                    a b c
              | DGen a, DGen b, DGen c ->
                  run
                    (gen_mult_block
                       ~kernel:(fun ~add:_ ~mul:_ -> None)
                       ~binop:(value_binop prog st) add mul)
                    a b c
              | _ -> generic st argv)
          | argv -> generic st argv)
  (* array_get_elem / array_put_elem / array_part_bounds are intercepted
     earlier, at the call site (compile_call), where the argument slots can
     be read without consing a list *)
  | _ -> None

(* ---------------- struct field resolution ---------------- *)

(* Position of [fname] in the struct type the typechecker recorded on this
   Field/Arrow node (the "<struct>" annotation), if any. *)
let field_slot fc (e : Ast.expr) fname =
  match List.assoc_opt "<struct>" e.Ast.inst with
  | Some (Ast.TNamed (n, _)) -> (
      match Typecheck.struct_def fc.prog.tyenv n with
      | Some sd ->
          let rec pos i = function
            | [] -> None
            | (_, fn) :: _ when String.equal fn fname -> Some i
            | _ :: rest -> pos (i + 1) rest
          in
          pos 0 sd.Ast.s_fields
      | None -> None)
  | _ -> None

(* The name check guards against an annotation that went stale (e.g. an AST
   shared across programs); the fallback searches like the interpreter. *)
let field_ref idx fname s =
  match idx with
  | Some i
    when i < Array.length s.s_names && String.equal s.s_names.(i) fname ->
      s.s_vals.(i)
  | _ -> Value.struct_field s fname

let field_get idx fname v =
  match v with
  | VStruct s -> !(field_ref idx fname s)
  | VBounds b -> Interp.bounds_field b fname
  | v -> rte "field access on %s" (describe v)

(* ---------------- expressions ---------------- *)

let fresh_slot fc =
  let s = fc.nslots in
  fc.nslots <- s + 1;
  s

let rec compile_expr fc scope (e : Ast.expr) : ecode =
  match e.Ast.desc with
  | Ast.Int n ->
      let v = VInt n in
      known 1 (fun _ _ -> v)
  | Ast.Float x ->
      let v = VFloat x in
      known 1 (fun _ _ -> v)
  | Ast.Str s ->
      let v = VStr s in
      known 1 (fun _ _ -> v)
  | Ast.Chr c ->
      let v = VChar c in
      known 1 (fun _ _ -> v)
  | Ast.OpSection op ->
      let v = VFun { fv_target = `Op op; fv_applied = [] } in
      known 1 (fun _ _ -> v)
  | Ast.Var x -> (
      match List.assoc_opt x scope with
      | Some slot -> known 1 (fun _ f -> f.(slot))
      | None ->
          if Interp.is_constant x then
            match x with
            | "procId" ->
                known 1 (fun st _ ->
                    match st.Interp.backend with
                    | `Par ctx -> VInt (Machine.self ctx)
                    | `Seq -> VInt 0)
            | "nProcs" ->
                known 1 (fun st _ ->
                    match st.Interp.backend with
                    | `Par ctx -> VInt (Machine.nprocs ctx)
                    | `Seq -> VInt 1)
            | _ ->
                let v = Option.get (Interp.constant fc.scratch x) in
                known 1 (fun _ _ -> v)
          else if Hashtbl.mem fc.prog.cfuncs x then
            let v = VFun { fv_target = `User x; fv_applied = [] } in
            known 1 (fun _ _ -> v)
          else if Typecheck.is_builtin x then
            let v = VFun { fv_target = `Builtin x; fv_applied = [] } in
            known 1 (fun _ _ -> v)
          else known 1 (fun _ _ -> rte "unbound identifier %s" x))
  | Ast.Call (h, args) -> compile_call fc scope h args
  | Ast.Binop ((("&&" | "||") as op), a, b) ->
      let ca = seal (compile_expr fc scope a) in
      let cb = seal (compile_expr fc scope b) in
      if op = "&&" then
        dyn (fun st f ->
            bump st 1;
            if truthy (ca st f) then
              VInt (if truthy (cb st f) then 1 else 0)
            else VInt 0)
      else
        dyn (fun st f ->
            bump st 1;
            if truthy (ca st f) then VInt 1
            else VInt (if truthy (cb st f) then 1 else 0))
  | Ast.Binop (op, a, b) -> (
      let fop = op_fn op in
      let ca = compile_expr fc scope a in
      let cb = compile_expr fc scope b in
      match (ca.ops, cb.ops) with
      | Some na, Some nb ->
          known
            (1 + na + nb)
            (fun st f ->
              let va = ca.run st f in
              let vb = cb.run st f in
              fop va vb)
      | _ ->
          let ra = seal ca and rb = seal cb in
          dyn (fun st f ->
              bump st 1;
              let va = ra st f in
              let vb = rb st f in
              fop va vb))
  | Ast.Unop ("!", a) ->
      combine1 (compile_expr fc scope a) (fun v ->
          VInt (if truthy v then 0 else 1))
  | Ast.Unop ("-", a) ->
      combine1 (compile_expr fc scope a) (fun v ->
          match v with
          | VInt n -> VInt (-n)
          | VFloat x -> VFloat (-.x)
          | v -> rte "cannot negate %s" (describe v))
  | Ast.Unop (op, _) ->
      known 1 (fun _ _ -> rte "unknown unary operator %s" op)
  | Ast.Assign (l, r) ->
      let cr = compile_expr fc scope r in
      compile_assign fc scope l cr
  | Ast.Idx (a, i) -> (
      let ca = compile_expr fc scope a in
      let ci = compile_expr fc scope i in
      let get arr j =
        if j >= 0 && j < Array.length arr then VInt arr.(j)
        else rte "Index access out of range (%d)" j
      in
      match (ca.ops, ci.ops) with
      | Some na, Some ni ->
          known
            (1 + na + ni)
            (fun st f ->
              let arr = as_index (ca.run st f) in
              get arr (as_int (ci.run st f)))
      | _ ->
          let ra = seal ca and ri = seal ci in
          dyn (fun st f ->
              bump st 1;
              let arr = as_index (ra st f) in
              get arr (as_int (ri st f))))
  | Ast.Field (s, fname) ->
      let idx = field_slot fc e fname in
      combine1 (compile_expr fc scope s) (field_get idx fname)
  | Ast.Arrow (p, fname) ->
      let idx = field_slot fc e fname in
      combine1 (compile_expr fc scope p) (fun v ->
          match v with
          | VPtr r -> field_get idx fname !r
          | VBounds b -> Interp.bounds_field b fname
          | VNull -> rte "dereference of NULL"
          | v -> rte "-> applied to %s" (describe v))
  | Ast.Deref p ->
      combine1 (compile_expr fc scope p) (fun v ->
          match v with
          | VPtr r -> !r
          | VNull -> rte "dereference of NULL"
          | v -> rte "dereference of %s" (describe v))
  | Ast.ArrayLit es -> (
      let cs = List.map (compile_expr fc scope) es in
      let fill runs st f =
        let n = Array.length runs in
        let out = Array.make n 0 in
        for i = 0 to n - 1 do
          out.(i) <- as_int (runs.(i) st f)
        done;
        VIndex out
      in
      if List.for_all (fun c -> c.ops <> None) cs then
        let total =
          List.fold_left (fun s c -> s + Option.get c.ops) 1 cs
        in
        let raws = Array.of_list (List.map (fun c -> c.run) cs) in
        known total (fill raws)
      else
        let sealed = Array.of_list (List.map seal cs) in
        dyn (fun st f ->
            bump st 1;
            fill sealed st f))
  | Ast.Cond (c, a, b) ->
      let cc = seal (compile_expr fc scope c) in
      let ca = seal (compile_expr fc scope a) in
      let cb = seal (compile_expr fc scope b) in
      dyn (fun st f ->
          bump st 1;
          if truthy (cc st f) then ca st f else cb st f)
  | Ast.New e ->
      combine1 (compile_expr fc scope e) (fun v ->
          VPtr (ref (Value.copy v)))

(* Calls.  Head bumps: the Call node plus, for a Var/OpSection head
   resolved statically, that head node (= 2).  Argument order mirrors the
   interpreter: head first, then arguments left to right. *)
and compile_call fc scope h args =
  let acs = List.map (compile_expr fc scope) args in
  let nargs = List.length acs in
  let all_known = List.for_all (fun c -> c.ops <> None) acs in
  let args_ops =
    if all_known then
      List.fold_left (fun s c -> s + Option.get c.ops) 0 acs
    else 0
  in
  let sealed = Array.of_list (List.map seal acs) in
  let eval_sealed st f =
    let n = Array.length sealed in
    let rec go i =
      if i = n then []
      else
        let v = sealed.(i) st f in
        v :: go (i + 1)
    in
    go 0
  in
  let raws = Array.of_list (List.map (fun c -> c.run) acs) in
  let eval_raw st f =
    let n = Array.length raws in
    let rec go i =
      if i = n then []
      else
        let v = raws.(i) st f in
        v :: go (i + 1)
    in
    go 0
  in
  (* a partial application allocates a closure value but cannot flush *)
  let partial target =
    if all_known then
      known (2 + args_ops) (fun st f ->
          VFun { fv_target = target; fv_applied = eval_raw st f })
    else
      dyn (fun st f ->
          bump st 2;
          VFun { fv_target = target; fv_applied = eval_sealed st f })
  in
  let over target arity =
    dyn (fun st f ->
        bump st 2;
        let argv = eval_sealed st f in
        let now, later = Interp.split_at arity argv in
        rt_apply fc.prog st (rt_invoke fc.prog st target now) later)
  in
  let direct =
    match h.Ast.desc with
    | Ast.Var x
      when (not (List.mem_assoc x scope)) && not (Interp.is_constant x)
      -> (
        match Hashtbl.find_opt fc.prog.cfuncs x with
        | Some fn -> `User (x, fn)
        | None ->
            if Typecheck.is_builtin x then
              `Builtin (x, Option.get (Typecheck.builtin_arity x))
            else `Unbound x)
    | Ast.OpSection op -> `Opsec op
    | _ -> `General
  in
  match direct with
  | `Unbound x ->
      (* the interpreter bumps Call then the head Var, then raises before
         touching the arguments *)
      dyn (fun st _ ->
          bump st 2;
          rte "unbound identifier %s" x)
  | `User (x, fn) ->
      if nargs = fn.c_arity then
        dyn (fun st f ->
            bump st 2;
            fn.c_invoke st (eval_sealed st f))
      else if nargs < fn.c_arity then partial (`User x)
      else over (`User x) fn.c_arity
  | `Builtin (x, arity) -> (
      if nargs <> arity then
        if nargs < arity then partial (`Builtin x) else over (`Builtin x) arity
      else
        (* Local-access builtins are the per-element hot path of skeleton
           argument functions (gauss reads two elements per eliminate call):
           evaluate the argument slots straight into locals instead of
           consing an argument list, with the same bumps and the same flush
           point as the generic dispatcher.  On a shape mismatch we rebuild
           the list and fall back (the dispatcher re-flushes; that is a
           no-op at pending = 0). *)
        match (x, sealed) with
        | "array_get_elem", [| sa; si |] when fc.prog.specialize ->
            dyn (fun st f ->
                bump st 2;
                let va = sa st f in
                let vi = si st f in
                Interp.flush_scalar st;
                match (va, vi) with
                | VDarray a, VIndex ix ->
                    Interp.get_elem_array (Interp.ctx_of st) a ix
                | _ ->
                    Interp.builtin st ~apply:(rt_apply fc.prog st) x
                      [ va; vi ])
        | "array_put_elem", [| sa; si; sv |] when fc.prog.specialize ->
            dyn (fun st f ->
                bump st 2;
                let va = sa st f in
                let vi = si st f in
                let v = sv st f in
                Interp.flush_scalar st;
                match (va, vi) with
                | VDarray a, VIndex ix ->
                    Interp.put_elem_array (Interp.ctx_of st) a ix v;
                    VUnit
                | _ ->
                    Interp.builtin st ~apply:(rt_apply fc.prog st) x
                      [ va; vi; v ])
        | "array_part_bounds", [| sa |] when fc.prog.specialize ->
            dyn (fun st f ->
                bump st 2;
                let va = sa st f in
                Interp.flush_scalar st;
                match va with
                | VDarray a ->
                    VBounds (Interp.part_bounds_array (Interp.ctx_of st) a)
                | _ ->
                    Interp.builtin st ~apply:(rt_apply fc.prog st) x [ va ])
        | _ -> (
            match (scalar_builtin_1 x, scalar_builtin_2 x, acs) with
            | Some f1, _, [ ca ] -> (
                match ca.ops with
                | Some na -> known (2 + na) (fun st f -> f1 (ca.run st f))
                | None ->
                    let ra = seal ca in
                    dyn (fun st f ->
                        bump st 2;
                        f1 (ra st f)))
            | _, Some f2, [ ca; cb ] -> (
                match (ca.ops, cb.ops) with
                | Some na, Some nb ->
                    known
                      (2 + na + nb)
                      (fun st f ->
                        let va = ca.run st f in
                        let vb = cb.run st f in
                        f2 va vb)
                | _ ->
                    let ra = seal ca and rb = seal cb in
                    dyn (fun st f ->
                        bump st 2;
                        let va = ra st f in
                        let vb = rb st f in
                        f2 va vb))
            | _ -> (
            match
              if fc.prog.specialize then specialize_skeleton fc.prog h x
              else None
            with
            | Some handle ->
                (* same flush point as the generic dispatcher's array_*
                   entry; the handler's own fallback re-flushing is a
                   no-op *)
                dyn (fun st f ->
                    bump st 2;
                    let argv = eval_sealed st f in
                    Interp.flush_scalar st;
                    handle st argv)
            | None ->
                dyn (fun st f ->
                    bump st 2;
                    Interp.builtin st ~apply:(rt_apply fc.prog st) x
                      (eval_sealed st f)))))
  | `Opsec op ->
      if nargs = 2 then (
        let fop = op_fn op in
        match acs with
        | [ ca; cb ] -> (
            match (ca.ops, cb.ops) with
            | Some na, Some nb ->
                known
                  (2 + na + nb)
                  (fun st f ->
                    let va = ca.run st f in
                    let vb = cb.run st f in
                    fop va vb)
            | _ ->
                let ra = seal ca and rb = seal cb in
                dyn (fun st f ->
                    bump st 2;
                    let va = ra st f in
                    let vb = rb st f in
                    fop va vb))
        | _ -> assert false)
      else if nargs < 2 then partial (`Op op)
      else over (`Op op) 2
  | `General ->
      let hc = seal (compile_expr fc scope h) in
      dyn (fun st f ->
          bump st 1;
          let hv = hc st f in
          let argv = eval_sealed st f in
          rt_apply fc.prog st hv argv)

(* Assignment mirrors Interp.assign: the right-hand side is evaluated and
   copied first, then the lvalue components. *)
and compile_assign fc scope (l : Ast.expr) cr =
  match l.Ast.desc with
  | Ast.Var x -> (
      match List.assoc_opt x scope with
      | Some slot -> (
          match cr.ops with
          | Some n ->
              known
                (1 + n)
                (fun st f ->
                  let v = Value.copy (cr.run st f) in
                  f.(slot) <- v;
                  v)
          | None ->
              let rr = seal cr in
              dyn (fun st f ->
                  bump st 1;
                  let v = Value.copy (rr st f) in
                  f.(slot) <- v;
                  v))
      | None ->
          let rr = seal cr in
          dyn (fun st f ->
              bump st 1;
              ignore (Value.copy (rr st f));
              rte "cannot assign to %s" x))
  | Ast.Idx (a, i) -> (
      let ca = compile_expr fc scope a in
      let ci = compile_expr fc scope i in
      let set v arr j =
        if j >= 0 && j < Array.length arr then (
          arr.(j) <- as_int v;
          v)
        else rte "Index assignment out of range (%d)" j
      in
      match (cr.ops, ca.ops, ci.ops) with
      | Some nr, Some na, Some ni ->
          known
            (1 + nr + na + ni)
            (fun st f ->
              let v = Value.copy (cr.run st f) in
              let arr = as_index (ca.run st f) in
              set v arr (as_int (ci.run st f)))
      | _ ->
          let rr = seal cr and ra = seal ca and ri = seal ci in
          dyn (fun st f ->
              bump st 1;
              let v = Value.copy (rr st f) in
              let arr = as_index (ra st f) in
              set v arr (as_int (ri st f))))
  | Ast.Field (s, fname) -> (
      let idx = field_slot fc l fname in
      let cs = compile_expr fc scope s in
      let set v sv =
        match sv with
        | VStruct str ->
            field_ref idx fname str := v;
            v
        | w -> rte "field assignment on %s" (describe w)
      in
      match (cr.ops, cs.ops) with
      | Some nr, Some ns ->
          known
            (1 + nr + ns)
            (fun st f ->
              let v = Value.copy (cr.run st f) in
              set v (cs.run st f))
      | _ ->
          let rr = seal cr and rs = seal cs in
          dyn (fun st f ->
              bump st 1;
              let v = Value.copy (rr st f) in
              set v (rs st f)))
  | Ast.Arrow (p, fname) -> (
      let idx = field_slot fc l fname in
      let cp = compile_expr fc scope p in
      let set v pv =
        match pv with
        | VPtr r -> (
            match !r with
            | VStruct str ->
                field_ref idx fname str := v;
                v
            | w -> rte "-> assignment on %s" (describe w))
        | VNull -> rte "assignment through NULL"
        | w -> rte "-> assignment on %s" (describe w)
      in
      match (cr.ops, cp.ops) with
      | Some nr, Some np ->
          known
            (1 + nr + np)
            (fun st f ->
              let v = Value.copy (cr.run st f) in
              set v (cp.run st f))
      | _ ->
          let rr = seal cr and rp = seal cp in
          dyn (fun st f ->
              bump st 1;
              let v = Value.copy (rr st f) in
              set v (rp st f)))
  | Ast.Deref p -> (
      let cp = compile_expr fc scope p in
      let set v pv =
        match pv with
        | VPtr r ->
            r := v;
            v
        | VNull -> rte "assignment through NULL"
        | w -> rte "assignment through %s" (describe w)
      in
      match (cr.ops, cp.ops) with
      | Some nr, Some np ->
          known
            (1 + nr + np)
            (fun st f ->
              let v = Value.copy (cr.run st f) in
              set v (cp.run st f))
      | _ ->
          let rr = seal cr and rp = seal cp in
          dyn (fun st f ->
              bump st 1;
              let v = Value.copy (rr st f) in
              set v (rp st f)))
  | _ ->
      let rr = seal cr in
      dyn (fun st f ->
          bump st 1;
          ignore (rr st f);
          rte "invalid assignment target")

(* ---------------- statements ---------------- *)

(* Every statement flushes pending scalar work first, exactly like
   Interp.exec; compile_stmt returns the (possibly extended) scope. *)
let rec compile_stmt fc scope s : (string * int) list * scode =
  let scope', raw = compile_stmt_raw fc scope s in
  ( scope',
    fun st f ->
      Interp.flush_scalar st;
      raw st f )

and compile_stmt_raw fc scope = function
  | Ast.SExpr e ->
      let c = seal (compile_expr fc scope e) in
      (scope, fun st f -> ignore (c st f))
  | Ast.SDecl (t, name, init) ->
      let slot = fresh_slot fc in
      let code =
        match init with
        | Some e ->
            let c = seal (compile_expr fc scope e) in
            fun st f -> f.(slot) <- Value.copy (c st f)
        | None ->
            (* the zero value of the type, evaluated once at compile time;
               copy gives each execution fresh struct field cells *)
            let template = Interp.default_value fc.scratch t in
            fun _ f -> f.(slot) <- Value.copy template
      in
      ((name, slot) :: scope, code)
  | Ast.SIf (c, a, b) ->
      let cc = seal (compile_expr fc scope c) in
      let ca = compile_block fc scope a in
      let cb = compile_block fc scope b in
      (scope, fun st f -> if truthy (cc st f) then ca st f else cb st f)
  | Ast.SWhile (c, body) ->
      let cc = seal (compile_expr fc scope c) in
      let cb = compile_block fc scope body in
      ( scope,
        fun st f ->
          try
            while truthy (cc st f) do
              try cb st f with Interp.Continue_exc -> ()
            done
          with Interp.Break_exc -> () )
  | Ast.SFor (init, cond, step, body) ->
      let scope', initc =
        match init with
        | Some s ->
            let sc, c = compile_stmt fc scope s in
            (sc, Some c)
        | None -> (scope, None)
      in
      let cc = Option.map (fun c -> seal (compile_expr fc scope' c)) cond in
      let stepc =
        Option.map (fun e -> seal (compile_expr fc scope' e)) step
      in
      let bodyc = compile_block fc scope' body in
      ( scope,
        fun st f ->
          (match initc with Some c -> c st f | None -> ());
          let check () =
            match cc with Some c -> truthy (c st f) | None -> true
          in
          try
            while check () do
              (try bodyc st f with Interp.Continue_exc -> ());
              match stepc with Some c -> ignore (c st f) | None -> ()
            done
          with Interp.Break_exc -> () )
  | Ast.SReturn None ->
      (scope, fun _ _ -> raise (Interp.Return_exc VUnit))
  | Ast.SReturn (Some e) ->
      let c = seal (compile_expr fc scope e) in
      ( scope,
        fun st f -> raise (Interp.Return_exc (Value.copy (c st f))) )
  | Ast.SBreak -> (scope, fun _ _ -> raise Interp.Break_exc)
  | Ast.SContinue -> (scope, fun _ _ -> raise Interp.Continue_exc)
  | Ast.SBlock b ->
      let cb = compile_block fc scope b in
      (scope, cb)

and compile_block fc scope stmts : scode =
  let _, rev =
    List.fold_left
      (fun (scope, acc) s ->
        let scope', c = compile_stmt fc scope s in
        (scope', c :: acc))
      (scope, []) stmts
  in
  match rev with
  | [] -> fun _ _ -> ()
  | [ c ] -> c
  | rev ->
      let codes = Array.of_list (List.rev rev) in
      let n = Array.length codes in
      fun st f ->
        for i = 0 to n - 1 do
          codes.(i) st f
        done

(* ---------------- program ---------------- *)

let compile_func t scratch (f : Ast.func) =
  let cfn = Hashtbl.find t.cfuncs f.Ast.f_name in
  let fc = { prog = t; scratch; nslots = 0 } in
  let scope = List.mapi (fun i p -> (p.Ast.p_name, i)) f.Ast.f_params in
  fc.nslots <- List.length f.Ast.f_params;
  let fbody = Option.get f.Ast.f_body in
  let body = compile_block fc scope fbody in
  let size = fc.nslots in
  cfn.c_size <- size;
  cfn.c_ix_safe <- not (List.exists stmt_writes_index fbody);
  let run st frame =
    try
      body st frame;
      VUnit
    with Interp.Return_exc v -> v
  in
  cfn.c_run <- run;
  cfn.c_invoke <-
    (fun st args ->
      let frame = Array.make size VUnit in
      let rec fill i = function
        | [] -> ()
        | v :: rest ->
            frame.(i) <- Value.copy v;
            fill (i + 1) rest
      in
      fill 0 args;
      run st frame)

let program ~tyenv ?(specialize = true) (prog_ast : Ast.program) : t =
  let t = { cfuncs = Hashtbl.create 32; tyenv; specialize } in
  let scratch = Interp.make ~tyenv prog_ast in
  let funcs =
    List.filter_map
      (function
        | Ast.TFunc f when f.Ast.f_body <> None -> Some f
        | _ -> None)
      prog_ast
  in
  (* placeholders first so recursive and forward calls resolve *)
  List.iter
    (fun f ->
      let missing _ _ = rte "function %s not yet compiled" f.Ast.f_name in
      Hashtbl.replace t.cfuncs f.Ast.f_name
        {
          c_arity = List.length f.Ast.f_params;
          c_size = 0;
          c_ix_safe = false;
          c_run = missing;
          c_invoke = missing;
        })
    funcs;
  List.iter (compile_func t scratch) funcs;
  t

let apply prog st v args = rt_apply prog st v args

let call prog st name args =
  if Hashtbl.mem prog.cfuncs name then
    rt_apply prog st (VFun { fv_target = `User name; fv_applied = [] }) args
  else if Typecheck.is_builtin name then
    rt_apply prog st
      (VFun { fv_target = `Builtin name; fv_applied = [] })
      args
  else rte "undefined function %s" name
