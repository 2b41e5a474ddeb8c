(* Bounded per-domain rings and the shared recorder clock.

   Each domain pushes into its own ring, found through one domain-local
   key per family, so the hot path takes no lock; the mutex only guards
   registration and the cold readers (snapshot, drop counts, reset).
   Rings are registered in their family's list when created and never
   removed, so what a finished worker recorded stays readable. *)

type ('a, 's) local = {
  l_dom : int;
  l_cap : int;
  mutable l_buf : 'a array; (* [||] until the first push *)
  mutable l_next : int; (* next write slot *)
  mutable l_count : int; (* pushes since reset, may exceed the cap *)
  mutable l_state : 's;
}

type ('a, 's) t = {
  key : ('a, 's) local Domain.DLS.key;
  rings : ('a, 's) local list ref;
  init : unit -> 's;
  counter : Metrics.counter;
  mutable published : int; (* drops already added to [counter] *)
}

let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let epoch_s = ref (Unix.gettimeofday ())
let epoch () = !epoch_s

let dropped fam =
  locked (fun () ->
      List.fold_left
        (fun acc l -> acc + max 0 (l.l_count - l.l_cap))
        0 !(fam.rings))

let publish fam =
  let d = dropped fam in
  if d > fam.published then begin
    Metrics.add_always fam.counter (d - fam.published);
    fam.published <- d
  end

let publishers : (unit -> unit) list ref = ref []

let publish_dropped () =
  List.iter (fun p -> p ()) (locked (fun () -> !publishers))

let create name ~capacity init =
  let rings = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let l =
          {
            l_dom = (Domain.self () :> int);
            l_cap = capacity;
            l_buf = [||];
            l_next = 0;
            l_count = 0;
            l_state = init ();
          }
        in
        locked (fun () -> rings := l :: !rings);
        l)
  in
  let fam =
    {
      key;
      rings;
      init;
      counter = Metrics.counter ("obs." ^ name ^ ".dropped");
      published = 0;
    }
  in
  locked (fun () -> publishers := (fun () -> publish fam) :: !publishers);
  fam

let local fam = Domain.DLS.get fam.key
let state l = l.l_state
let dom l = l.l_dom
let pushed l = l.l_count

let push l v =
  if Array.length l.l_buf = 0 then l.l_buf <- Array.make l.l_cap v
  else l.l_buf.(l.l_next) <- v;
  l.l_next <- (if l.l_next + 1 = l.l_cap then 0 else l.l_next + 1);
  l.l_count <- l.l_count + 1

(* Oldest first: once the ring has wrapped, the oldest entry sits at the
   next write slot. *)
let kept l =
  if l.l_count >= l.l_cap then
    List.init l.l_cap (fun i -> l.l_buf.((l.l_next + i) mod l.l_cap))
  else Array.to_list (Array.sub l.l_buf 0 l.l_count)

let snapshot fam =
  locked (fun () ->
      List.filter_map
        (fun l -> if l.l_count = 0 then None else Some (l.l_dom, kept l))
        !(fam.rings))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset fam =
  locked (fun () ->
      List.iter
        (fun l ->
          l.l_buf <- [||];
          l.l_next <- 0;
          l.l_count <- 0;
          l.l_state <- fam.init ())
        !(fam.rings));
  fam.published <- 0;
  epoch_s := Unix.gettimeofday ()
