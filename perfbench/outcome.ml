(* What a run reports: operation accounting, correctness, and the
   metric values by name (units live in run.py's manifest). *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** failed output checks *)
  mutable values : (string * float) list;
}

let create () = { attempted = 0; failed = 0; problems = []; values = [] }

let problem r fmt =
  Printf.ksprintf
    (fun s ->
       prerr_endline ("check failed: " ^ s);
       r.problems <- s :: r.problems)
    fmt

let set r name v = r.values <- (name, v) :: List.remove_assoc name r.values

let print r =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"values\": {%s}}\n%!"
    (r.problems = []) r.attempted r.failed
    (String.concat ", "
       (List.rev_map (fun (k, v) -> Printf.sprintf "%S: %s" k (num v)) r.values))
