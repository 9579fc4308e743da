(* In-memory spans recorded by the benchmark around each call into a layer
   of the system: name, start, end, parent span and job id.  Nothing is
   written until {!write_chrome} at the end of the run. *)

type t = {
  id : int;
  parent : int;  (** 0 = root *)
  name : string;
  job : string;
  t0 : float;
  t1 : float;
}

type tracer = {
  mu : Mutex.t;
  mutable next : int;
  mutable spans : t list;
}

let create () = { mu = Mutex.create (); next = 1; spans = [] }

let now = Unix.gettimeofday

(* Reserve an id, so children can name their parent before it ends. *)
let reserve tr =
  Mutex.protect tr.mu (fun () ->
      let id = tr.next in
      tr.next <- id + 1;
      id)

let record tr id ~parent ~name ~job ~t0 ~t1 =
  Mutex.protect tr.mu (fun () ->
      tr.spans <- { id; parent; name; job; t0; t1 } :: tr.spans)

(* A span timed by the caller, with no children. *)
let add tr ~parent ~name ~job ~t0 ~t1 =
  record tr (reserve tr) ~parent ~name ~job ~t0 ~t1

(* [with_span (Some tr) ~parent ~name ~job f] runs [f id] inside a span
   whose id children may use as [parent]; with no tracer it just runs
   [f 0]. *)
let with_span tro ~parent ~name ~job f =
  match tro with
  | None -> f 0
  | Some tr ->
      let id = reserve tr in
      let t0 = now () in
      let finish () = record tr id ~parent ~name ~job ~t0 ~t1:(now ()) in
      Fun.protect ~finally:finish (fun () -> f id)

let spans tr = Mutex.protect tr.mu (fun () -> List.rev tr.spans)

(* Total length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of its interval
   covered by its children. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids))
    spans

(* Mean self time in ms per span named [name]; 0 when none was recorded. *)
let mean_self_ms selfs name =
  Pstats.mean
    (List.filter_map
       (fun (s, self) -> if s.name = name then Some (self *. 1000.) else None)
       selfs)

(* Chrome trace-event JSON (complete "X" events, microseconds). *)
let write_chrome path spans =
  let oc = open_out path in
  let origin = List.fold_left (fun m s -> min m s.t0) infinity spans in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"job\":%S}}\n"
        (if i = 0 then "" else ",")
        s.name
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent s.job)
    spans;
  output_string oc "]}\n";
  close_out oc
