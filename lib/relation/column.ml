type data =
  | Ints of int array
  | Floats of float array
  | Bools of bool array
  | Dict of {
      codes : int array;
      dict : string array;
    }

type t = {
  data : data;
  valid : Bytes.t option;
}

let data_length = function
  | Ints a -> Array.length a
  | Floats a -> Array.length a
  | Bools a -> Array.length a
  | Dict { codes; _ } -> Array.length codes

let length t = data_length t.data

let ty t =
  match t.data with
  | Ints _ -> Value.Tint
  | Floats _ -> Value.Tfloat
  | Bools _ -> Value.Tbool
  | Dict _ -> Value.Tstring

(* ---- validity bitmaps (bit i of byte i/8) ---- *)

let bitmap_create n = Bytes.make ((n + 7) / 8) '\000'

let bitmap_set bm i =
  let j = i lsr 3 in
  Bytes.unsafe_set bm j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bm j) lor (1 lsl (i land 7))))

let bitmap_get bm i =
  Char.code (Bytes.unsafe_get bm (i lsr 3)) land (1 lsl (i land 7)) <> 0

let all_valid t = t.valid = None

let valid_at t i =
  match t.valid with
  | None -> true
  | Some bm -> bitmap_get bm i

let check_dict codes dict =
  let d = Array.length dict in
  Array.iter
    (fun c ->
       if c < 0 || c >= d then
         invalid_arg
           (Printf.sprintf "Column.make: dictionary code %d out of range %d" c d))
    codes

let make data =
  (match data with Dict { codes; dict } -> check_dict codes dict | _ -> ());
  { data; valid = None }

let get t i =
  if not (valid_at t i) then invalid_arg "Column.get: null slot"
  else
    match t.data with
    | Ints a -> Value.Int a.(i)
    | Floats a -> Value.Float a.(i)
    | Bools a -> Value.Bool a.(i)
    | Dict { codes; dict } -> Value.Str dict.(codes.(i))

let get_opt t i = if valid_at t i then Some (get t i) else None

(* ---- construction from boxed values ---- *)

let type_mismatch expected v =
  invalid_arg
    (Printf.sprintf "Column.of_values: expected %s, got %s"
       (Value.ty_to_string expected)
       (Value.ty_to_string (Value.type_of v)))

(* dictionary-encode strings in first-appearance order; [get_s] maps a
   slot to its string (nulls encode as code 0, masked by the bitmap) *)
let encode_dict n get_s =
  let codes = Array.make n 0 in
  let index : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let entries = ref [] in
  let next = ref 0 in
  for i = 0 to n - 1 do
    match get_s i with
    | None -> ()
    | Some s ->
      let code =
        match Hashtbl.find_opt index s with
        | Some c -> c
        | None ->
          let c = !next in
          Hashtbl.add index s c;
          entries := s :: !entries;
          incr next;
          c
      in
      codes.(i) <- code
  done;
  let dict = Array.make !next "" in
  List.iteri (fun k s -> dict.(!next - 1 - k) <- s) !entries;
  Dict { codes; dict }

let of_values ty (vs : Value.t array) =
  let n = Array.length vs in
  let data =
    match ty with
    | Value.Tint ->
      Ints
        (Array.map
           (function Value.Int i -> i | v -> type_mismatch ty v)
           vs)
    | Value.Tfloat ->
      Floats
        (Array.map
           (function Value.Float f -> f | v -> type_mismatch ty v)
           vs)
    | Value.Tbool ->
      Bools
        (Array.map
           (function Value.Bool b -> b | v -> type_mismatch ty v)
           vs)
    | Value.Tstring ->
      encode_dict n (fun i ->
          match vs.(i) with
          | Value.Str s -> Some s
          | v -> type_mismatch ty v)
  in
  { data; valid = None }

let of_strings (ss : string array) =
  { data = encode_dict (Array.length ss) (fun i -> Some ss.(i)); valid = None }

let of_options ty (vs : Value.t option array) =
  let n = Array.length vs in
  let bm = bitmap_create n in
  let any_null = ref false in
  Array.iteri
    (fun i v ->
       match v with
       | Some _ -> bitmap_set bm i
       | None -> any_null := true)
    vs;
  if not !any_null then
    of_values ty (Array.map (function Some v -> v | None -> assert false) vs)
  else begin
    let data =
      match ty with
      | Value.Tint ->
        Ints
          (Array.init n (fun i ->
               match vs.(i) with
               | None -> 0
               | Some (Value.Int x) -> x
               | Some v -> type_mismatch ty v))
      | Value.Tfloat ->
        Floats
          (Array.init n (fun i ->
               match vs.(i) with
               | None -> 0.
               | Some (Value.Float x) -> x
               | Some v -> type_mismatch ty v))
      | Value.Tbool ->
        Bools
          (Array.init n (fun i ->
               match vs.(i) with
               | None -> false
               | Some (Value.Bool x) -> x
               | Some v -> type_mismatch ty v))
      | Value.Tstring ->
        encode_dict n (fun i ->
            match vs.(i) with
            | None -> None
            | Some (Value.Str s) -> Some s
            | Some v -> type_mismatch ty v)
    in
    { data; valid = Some bm }
  end

let to_values t =
  if not (all_valid t) then
    invalid_arg "Column.to_values: column has null slots"
  else Array.init (length t) (fun i -> get t i)

let to_options t = Array.init (length t) (fun i -> get_opt t i)

(* ---- selection-vector apply ---- *)

(* A gather whose index may arrive in runs: each [add] appends the
   slots of one run, so a caller walking a JOIN's matches builds no
   index of the output's length. Manual loops: [Array.map] would pay a
   closure call per element, and gathers sit on the hot edge of every
   selective kernel. *)
module Gatherer = struct
  type column = t

  type t = {
    src : column;
    out : data;
    valid : Bytes.t option;
    mutable at : int;
  }

  let create (src : column) n =
    let out =
      match src.data with
      | Ints _ -> Ints (Array.make n 0)
      | Floats _ -> Floats (Array.create_float n)
      | Bools _ -> Bools (Array.make n false)
      | Dict { dict; _ } -> Dict { codes = Array.make n 0; dict }
    in
    let valid = Option.map (fun _ -> bitmap_create n) src.valid in
    { src; out; valid; at = 0 }

  let add g (ix : int array) len =
    let at = g.at in
    (match (g.src.data, g.out) with
     | Ints a, Ints o ->
       for k = 0 to len - 1 do
         o.(at + k) <- a.(ix.(k))
       done
     | Floats a, Floats o ->
       for k = 0 to len - 1 do
         o.(at + k) <- a.(ix.(k))
       done
     | Bools a, Bools o ->
       for k = 0 to len - 1 do
         o.(at + k) <- a.(ix.(k))
       done
     | Dict { codes; _ }, Dict { codes = o; _ } ->
       for k = 0 to len - 1 do
         o.(at + k) <- codes.(ix.(k))
       done
     | _ -> assert false);
    (match (g.src.valid, g.valid) with
     | Some bm, Some out ->
       for k = 0 to len - 1 do
         if bitmap_get bm ix.(k) then bitmap_set out (at + k)
       done
     | _ -> ());
    g.at <- at + len

  (* the bitmap is dropped when every gathered slot holds a value *)
  let finish g =
    let n = data_length g.out in
    if g.at <> n then invalid_arg "Column.Gatherer.finish: short gather";
    let valid =
      match g.valid with
      | Some bm ->
        let all = ref true in
        for i = 0 to n - 1 do
          if not (bitmap_get bm i) then all := false
        done;
        if !all then None else Some bm
      | None -> None
    in
    { data = g.out; valid }
end

let gather t idx =
  let n = Array.length idx in
  let g = Gatherer.create t n in
  Gatherer.add g idx n;
  Gatherer.finish g

(* ---- comparison (Value.compare same-type semantics) ---- *)

let compare_at t i j =
  match t.valid with
  | Some bm when not (bitmap_get bm i && bitmap_get bm j) -> (
    match bitmap_get bm i, bitmap_get bm j with
    | false, false -> 0
    | false, true -> -1
    | true, false -> 1
    | true, true -> assert false)
  | _ -> (
    match t.data with
    | Ints a -> Int.compare a.(i) a.(j)
    | Floats a -> Float.compare a.(i) a.(j)
    | Bools a -> Bool.compare a.(i) a.(j)
    | Dict { codes; dict } -> String.compare dict.(codes.(i)) dict.(codes.(j)))

(* ---- modeled encoded size ---- *)

(* Only the dictionary entries some valid slot reaches are charged: a
   gathered column shares its base's dictionary whole, and a null slot
   holds code 0 without holding its value. The scan stops once every
   entry is reached. *)
let encoded_bytes ?idx ?rows t =
  let n =
    match rows, idx with
    | Some n, _ -> n
    | None, Some ix -> Array.length ix
    | None, None -> length t
  in
  match t.data with
  | Ints _ | Floats _ -> 8 * n
  | Bools _ -> n
  | Dict { codes; dict } ->
    let d = Array.length dict in
    let seen = Bytes.make d '\000' in
    let left = ref d and bytes = ref (4 * n) in
    let visit i =
      let c = codes.(i) in
      if Bytes.unsafe_get seen c = '\000' && valid_at t i then begin
        Bytes.unsafe_set seen c '\001';
        decr left;
        bytes := !bytes + String.length dict.(c) + 1
      end
    in
    let k = ref 0 in
    (match idx with
     | None ->
       while !left > 0 && !k < Array.length codes do
         visit !k;
         incr k
       done
     | Some ix ->
       while !left > 0 && !k < Array.length ix do
         visit ix.(!k);
         incr k
       done);
    !bytes

(* ---- builder ---- *)

module Builder = struct
  type buf =
    | B_int of int array ref
    | B_float of float array ref
    | B_bool of bool array ref
    | B_str of {
        codes : int array ref;
        index : (string, int) Hashtbl.t;
        mutable entries : string list;
        mutable next : int;
      }

  type t = {
    buf : buf;
    bty : Value.ty;
    mutable len : int;
    mutable nulls : int list;  (* null slot indexes, reversed *)
  }

  let create ?(capacity = 16) bty =
    let capacity = max capacity 1 in
    let buf =
      match bty with
      | Value.Tint -> B_int (ref (Array.make capacity 0))
      | Value.Tfloat -> B_float (ref (Array.make capacity 0.))
      | Value.Tbool -> B_bool (ref (Array.make capacity false))
      | Value.Tstring ->
        B_str
          { codes = ref (Array.make capacity 0);
            index = Hashtbl.create 16; entries = []; next = 0 }
    in
    { buf; bty; len = 0; nulls = [] }

  let length t = t.len

  let grow_to arr fill wanted =
    let cap = Array.length !arr in
    if wanted > cap then begin
      let bigger = Array.make (max wanted (2 * cap)) fill in
      Array.blit !arr 0 bigger 0 cap;
      arr := bigger
    end

  let push_raw t v =
    let i = t.len in
    (match t.buf, v with
     | B_int a, Some (Value.Int x) ->
       grow_to a 0 (i + 1);
       !a.(i) <- x
     | B_int a, None -> grow_to a 0 (i + 1)
     | B_float a, Some (Value.Float x) ->
       grow_to a 0. (i + 1);
       !a.(i) <- x
     | B_float a, None -> grow_to a 0. (i + 1)
     | B_bool a, Some (Value.Bool x) ->
       grow_to a false (i + 1);
       !a.(i) <- x
     | B_bool a, None -> grow_to a false (i + 1)
     | B_str b, Some (Value.Str s) ->
       grow_to b.codes 0 (i + 1);
       let code =
         match Hashtbl.find_opt b.index s with
         | Some c -> c
         | None ->
           let c = b.next in
           Hashtbl.add b.index s c;
           b.entries <- s :: b.entries;
           b.next <- c + 1;
           c
       in
       !(b.codes).(i) <- code
     | B_str b, None -> grow_to b.codes 0 (i + 1)
     | _, Some v ->
       invalid_arg
         (Printf.sprintf "Column.Builder.push: expected %s, got %s"
            (Value.ty_to_string t.bty)
            (Value.ty_to_string (Value.type_of v))));
    if v = None then t.nulls <- i :: t.nulls;
    t.len <- i + 1

  let push t v = push_raw t (Some v)

  let push_opt t v = push_raw t v

  let to_column t =
    let n = t.len in
    let data =
      match t.buf with
      | B_int a -> Ints (Array.sub !a 0 n)
      | B_float a -> Floats (Array.sub !a 0 n)
      | B_bool a -> Bools (Array.sub !a 0 n)
      | B_str b ->
        let dict = Array.make b.next "" in
        List.iteri (fun k s -> dict.(b.next - 1 - k) <- s) b.entries;
        Dict { codes = Array.sub !(b.codes) 0 n; dict }
    in
    let valid =
      match t.nulls with
      | [] -> None
      | nulls ->
        let bm = bitmap_create n in
        for i = 0 to n - 1 do
          bitmap_set bm i
        done;
        (* clear the null slots *)
        let clear i =
          let j = i lsr 3 in
          Bytes.set bm j
            (Char.chr
               (Char.code (Bytes.get bm j) land lnot (1 lsl (i land 7))))
        in
        List.iter clear nulls;
        Some bm
    in
    { data; valid }
end

(* ---- columnar execution gate ---- *)

let parse_flag s =
  match String.lowercase_ascii (String.trim s) with
  | "0" | "false" | "off" | "no" -> Some false
  | "1" | "true" | "on" | "yes" -> Some true
  | _ -> None

let env_enabled () =
  Option.bind (Sys.getenv_opt "MUSKETEER_COLUMNAR") parse_flag

let scoped : bool option ref = ref None

let enabled () =
  match !scoped with
  | Some v -> v
  | None -> ( match env_enabled () with Some v -> v | None -> true)

let with_enabled v f =
  let old = !scoped in
  scoped := Some v;
  Fun.protect ~finally:(fun () -> scoped := old) f
