(* Span recorder for traced runs. Spans are opened by the benchmark
   around calls into the library's public functions (nothing inside
   lib/ is instrumented), kept in memory, and written out once the run
   ends. A disabled recorder only runs the wrapped function. *)

type span = { id : int; name : string; parent : int; t0 : float; t1 : float }

type t = {
  enabled : bool;
  origin : float;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;
}

let now = Unix.gettimeofday

let create ~enabled = { enabled; origin = now (); next = 0; stack = []; spans = [] }

let span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = now () in
        t.stack <- List.tl t.stack;
        t.spans <- { id; name; parent; t0; t1 } :: t.spans)
  end

(* A span that ran from [t0] to [t1] inside the innermost open span,
   for work whose edges are reported by a callback rather than
   bracketed by a call of its own. *)
let record t name ~t0 ~t1 =
  if t.enabled then begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.spans <- { id; name; parent; t0; t1 } :: t.spans
  end

(* Per span name: (calls, total duration, total self time) in seconds;
   self time is the duration minus the part covered by direct
   children. *)
let totals t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
       if s.parent >= 0 then
         Hashtbl.replace child s.parent
           (Option.value (Hashtbl.find_opt child s.parent) ~default:0.0 +. (s.t1 -. s.t0)))
    t.spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
       let d = s.t1 -. s.t0 in
       let self = d -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
       let n, dur, slf = Option.value (Hashtbl.find_opt acc s.name) ~default:(0, 0.0, 0.0) in
       Hashtbl.replace acc s.name (n + 1, dur +. d, slf +. self))
    t.spans;
  acc

let lookup tbl name = Option.value (Hashtbl.find_opt tbl name) ~default:(0, 0.0, 0.0)

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let write t path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
       Printf.fprintf oc "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
         (if i = 0 then "" else ",") s.name
         ((s.t0 -. t.origin) *. 1e6) ((s.t1 -. s.t0) *. 1e6) s.id s.parent)
    (List.rev t.spans);
  output_string oc "\n]}\n";
  close_out oc

(* Quantile with linear interpolation between order statistics. *)
let quantile q samples =
  match List.sort compare samples with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = truncate pos in
    let j = min (i + 1) (Array.length a - 1) in
    a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median = quantile 0.5
let mean = function [] -> nan | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect (fun () -> scan ()) ~finally:(fun () -> close_in ic)
