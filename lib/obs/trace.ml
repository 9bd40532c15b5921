type value =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

type span = {
  id : int;
  parent : int option;
  name : string;
  start_ns : int64;
  mutable dur_ns : int64;
  mutable attrs : (string * value) list;
}

type t = {
  mutable recorded : span list;  (* reverse start order *)
  mutable stack : span list;     (* innermost open span first *)
  mutable next_id : int;
  mutable epoch_ns : int64 option;  (* absolute time of the first span *)
}

let create () = { recorded = []; stack = []; next_id = 0; epoch_ns = None }

let current : t option ref = ref None

let enabled () = Option.is_some !current

let collecting f =
  let t = create () in
  let previous = !current in
  current := Some t;
  let result =
    Fun.protect ~finally:(fun () -> current := previous) f
  in
  (t, result)

let epoch t now =
  match t.epoch_ns with
  | Some e -> e
  | None ->
    t.epoch_ns <- Some now;
    now

let with_span ?(attrs = []) name f =
  match !current with
  | None -> f ()
  | Some t ->
    let now = Clock.now_ns () in
    let epoch = epoch t now in
    let s =
      { id = t.next_id;
        parent =
          (match t.stack with [] -> None | p :: _ -> Some p.id);
        name;
        start_ns = Int64.sub now epoch;
        dur_ns = 0L;
        attrs }
    in
    t.next_id <- t.next_id + 1;
    t.recorded <- s :: t.recorded;
    t.stack <- s :: t.stack;
    Fun.protect
      ~finally:(fun () ->
        s.dur_ns <-
          Int64.sub (Int64.sub (Clock.now_ns ()) epoch) s.start_ns;
        (* pop up to and including [s]: resilient to a collector
           installed mid-span *)
        let rec pop = function
          | [] -> []
          | x :: rest -> if x.id = s.id then rest else pop rest
        in
        t.stack <- pop t.stack)
      f

let add_attr key v =
  match !current with
  | None -> ()
  | Some t -> (
    match t.stack with
    | [] -> ()
    | s :: _ -> s.attrs <- s.attrs @ [ (key, v) ])

let spans t = List.rev t.recorded

let span_count t = List.length t.recorded

let find t ~name = List.filter (fun s -> s.name = name) (spans t)

let find_prefix t ~prefix =
  let n = String.length prefix in
  List.filter
    (fun s -> String.length s.name >= n && String.sub s.name 0 n = prefix)
    (spans t)

let time f =
  let t0 = Clock.now_ns () in
  let result = f () in
  (result, Clock.elapsed_s ~since:t0 ~until:(Clock.now_ns ()))

let pp_value ppf = function
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | String s -> Format.pp_print_string ppf s
