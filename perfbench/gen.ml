(* Job generator of the skild mix.  Every job is a Skil program
   built from a seed: a chain of [array_map] stages over a small 1-D
   array, closed by an [array_fold].  Each stage calls its own scalar
   helper, so the program's size (and the frontend's work) grows with the
   number of stages while its run stays tiny.  [expected] recomputes the
   folded value in plain OCaml, independently of every Skil engine. *)

let modulus = 10007

type stage = { kind : int; a : int; b : int; c : int; arg : int }

type program = {
  tag : int;  (** folded into [init], so distinct tags give distinct sources *)
  len : int;  (** array length *)
  init_a : int;
  stages : stage list;
}

let gen_program rng ~tag ~stages ~len =
  let r n = Random.State.int rng n in
  {
    tag;
    len;
    init_a = 1 + r 97;
    stages =
      List.init stages (fun _ ->
          { kind = r 3; a = 1 + r 89; b = r modulus; c = r modulus;
            arg = r modulus });
  }

(* The helper of stage [s] as OCaml: the reference semantics of the Skil
   text rendered by [source]. *)
let helper s x =
  let m = modulus in
  match s.kind with
  | 0 ->
      let y = ((x * s.a) + s.b) mod m in
      if y mod 2 = 0 then (y + s.c) mod m else ((y * 3) + 1) mod m
  | 1 ->
      let y = ref x in
      for k = 0 to 2 do
        y := ((!y * s.a) + k + s.b) mod m
      done;
      !y
  | _ -> if x > s.c then (x - s.c + s.b) mod m else (x * s.a) mod m

let helper_src i s =
  match s.kind with
  | 0 ->
      Printf.sprintf
        "int h%d(int x) {\n\
        \  int y = (x * %d + %d) %% %d;\n\
        \  if (y %% 2 == 0) { y = (y + %d) %% %d; } else { y = (y * 3 + 1) %% %d; }\n\
        \  return y;\n\
         }\n"
        i s.a s.b modulus s.c modulus modulus
  | 1 ->
      Printf.sprintf
        "int h%d(int x) {\n\
        \  int y = x;\n\
        \  for (int k = 0; k < 3; k++) { y = (y * %d + k + %d) %% %d; }\n\
        \  return y;\n\
         }\n"
        i s.a s.b modulus
  | _ ->
      Printf.sprintf
        "int h%d(int x) {\n\
        \  if (x > %d) { return (x - %d + %d) %% %d; }\n\
        \  return (x * %d) %% %d;\n\
         }\n"
        i s.c s.c s.b modulus s.a modulus

let init_value p j = ((j * p.init_a) + p.tag) mod modulus

let source p =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  add (Printf.sprintf "/* generated job %d */\n" p.tag);
  add
    (Printf.sprintf "int init(Index ix) { return (ix[0] * %d + %d) %% %d; }\n"
       p.init_a p.tag modulus);
  List.iteri
    (fun i s ->
      add (helper_src i s);
      add
        (Printf.sprintf
           "int f%d(int c, int elem, Index ix) { return h%d((elem + c + \
            ix[0]) %% %d); }\n"
           i i modulus))
    p.stages;
  add "int conv(int elem, Index ix) { return elem; }\n";
  add "int addi(int x, int y) { return x + y; }\n";
  add "int main() {\n  array<int> a;\n";
  add
    (Printf.sprintf
       "  a = array_create(1, {%d}, {0}, {-1}, init, DISTR_DEFAULT);\n" p.len);
  List.iteri
    (fun i s -> add (Printf.sprintf "  array_map(f%d(%d), a, a);\n" i s.arg))
    p.stages;
  add "  int r = array_fold(conv, addi, a);\n";
  add "  if (procId == 0) { print_int(r); }\n";
  add "  array_destroy(a);\n  return r;\n}\n";
  Buffer.contents b

let expected p =
  let a = Array.init p.len (init_value p) in
  List.iter
    (fun s ->
      Array.iteri
        (fun j v -> a.(j) <- helper s ((v + s.arg + j) mod modulus))
        a)
    p.stages;
  Array.fold_left ( + ) 0 a

(* ------------------------------------------------------------------ *)
(* The job stream                                                       *)

type kind = Hit | Miss

type job = {
  index : int;
  kind : kind;
  prog : program;  (** for a hit, the hot-set program it repeats *)
  fuse : bool;
  src : string;
  value : int;  (** expected folded value *)
}

(* Hot set: a few tiny programs whose run takes well under a millisecond,
   so a hit's latency is mostly the service's own overhead. *)
let hot_size = 4
let hot_stages = 2
let hot_len = 8

(* Misses: distinct programs large enough that parse -> compile is most of
   the job. *)
let miss_stages_lo = 24
let miss_stages_hi = 40
let miss_len = 16

(* Mix design: every block of [block] consecutive jobs holds exactly
   [hits_per_block] hits, and every two consecutive misses one fused and
   one not; a run stops only on a block boundary, so the cache-hit ratio
   of a run is exactly [hit_ratio]. *)
let block = 8
let hits_per_block = 6
let hit_ratio = float_of_int hits_per_block /. float_of_int block

type stream = {
  seed : int;
  hot : job array;
  mutable warm_tags : int;  (** warm-up misses drawn so far *)
}

let job_of ~index ~kind ~fuse prog =
  { index; kind; prog; fuse; src = source prog; value = expected prog }

let make_stream seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let hot =
    Array.init hot_size (fun i ->
        job_of ~index:(-1) ~kind:Hit ~fuse:false
          (gen_program rng ~tag:(1_000_000 + i) ~stages:hot_stages
             ~len:hot_len))
  in
  { seed; hot; warm_tags = 0 }

(* Job [i] of the stream is a pure function of (seed, i), so concurrent
   clients may draw indices in any order. *)
let job st i =
  let b = i / block and pos = i mod block in
  let rng = Random.State.make [| st.seed; b |] in
  let order = Array.init block (fun k -> k) in
  for k = block - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let t = order.(k) in
    order.(k) <- order.(j);
    order.(j) <- t
  done;
  (* slots order.(0 .. hits_per_block-1) are hits; the remaining misses
     alternate fuse / none starting from a seeded parity *)
  let slot = ref 0 in
  Array.iteri (fun k p -> if p = pos then slot := k) order;
  let first_fuse = Random.State.bool rng in
  if !slot < hits_per_block then
    { (st.hot.(Random.State.int (Random.State.make [| st.seed; i; 1 |]) hot_size))
      with index = i }
  else begin
    let m = !slot - hits_per_block in
    let fuse = if m mod 2 = 0 then first_fuse else not first_fuse in
    let rng = Random.State.make [| st.seed; i; 2 |] in
    let stages =
      miss_stages_lo + Random.State.int rng (miss_stages_hi - miss_stages_lo + 1)
    in
    job_of ~index:i ~kind:Miss ~fuse
      (gen_program rng ~tag:i ~stages ~len:miss_len)
  end

(* Warm-up misses: distinct from every stream job and hot program. *)
let warm_miss st =
  st.warm_tags <- st.warm_tags + 1;
  let rng = Random.State.make [| st.seed; st.warm_tags; 3 |] in
  job_of ~index:(-1) ~kind:Miss ~fuse:(st.warm_tags mod 2 = 0)
    (gen_program rng ~tag:(2_000_000 + st.warm_tags) ~stages:miss_stages_lo
       ~len:miss_len)
