//! Traced-run phase (c): what the host can do, and what the reduce
//! kernels reach at the workload's tensor size, measured in the same
//! binary so a percent-of-ceiling survives a change of box.

use pcoll_comm::{Payload, ReduceOp, TypedBuf};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Bytes a reduce or triad pass moves per f32 element: two reads and one
/// write.
const PASS_BYTES_PER_ELEM: f64 = 12.0;

/// The host's ceilings.
#[derive(Debug, Clone, Copy)]
pub struct HostCeilings {
    /// Last-level cache as the kernel reports it, MiB.
    pub llc_mib: f64,
    /// Each triad array, MiB.
    pub array_mib: f64,
    pub triad_gbps: f64,
    pub memcpy_gbps: f64,
    pub socket_bulk_gbps: f64,
    pub socket_pingpong_us: f64,
}

fn llc_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            let size = size.trim();
            let (digits, unit) = size.split_at(size.find(|c: char| !c.is_ascii_digit())?);
            let scale = match unit {
                "K" => 1 << 10,
                "M" => 1 << 20,
                "G" => 1 << 30,
                _ => return None,
            };
            Some(digits.parse::<usize>().ok()? * scale)
        })
        .max()
        .unwrap_or(32 << 20)
}

fn mem_available_bytes() -> usize {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("MemAvailable:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<usize>().ok())
        })
        .map_or(1 << 30, |kib| kib << 10)
}

/// Best of `passes` timings of `f`, in seconds. The ceilings are what
/// the host can do, so the fastest pass is the one that counts.
fn best_of(passes: usize, mut f: impl FnMut()) -> f64 {
    (0..passes)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Largest triad array. Four times the last-level cache is the rule, but
/// a 2-vCPU guest reports the whole socket's L3 (260 MiB on the reference
/// host) and first-touching three arrays of four times that takes 12 s
/// there; three arrays of this size still overflow that L3 by half.
const MAX_ARRAY_BYTES: usize = 128 << 20;

/// Single-threaded STREAM-style triad `a = b + s·c` and a plain copy on
/// arrays of four times the last-level cache, capped at
/// `MAX_ARRAY_BYTES` and at an eighth of the available memory each. Both
/// sizes are reported beside the result.
fn memory_ceilings() -> (f64, f64, f64, f64) {
    let llc = llc_bytes();
    let bytes = (4 * llc)
        .min(MAX_ARRAY_BYTES)
        .min(mem_available_bytes() / 8)
        .max(16 << 20);
    let n = bytes / 4;
    let mut a = vec![0.0f32; n];
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let s = black_box(3.0f32);
    let triad_s = best_of(3, || {
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + s * *c;
        }
        black_box(&mut a);
    });
    let copy_s = best_of(3, || {
        a.copy_from_slice(black_box(&b));
        black_box(&mut a);
    });
    let mib = |b: usize| b as f64 / (1 << 20) as f64;
    (
        mib(llc),
        mib(bytes),
        n as f64 * PASS_BYTES_PER_ELEM / triad_s / 1e9,
        n as f64 * 8.0 / copy_s / 1e9,
    )
}

fn loopback_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let a = TcpStream::connect(listener.local_addr()?)?;
    let (b, _) = listener.accept()?;
    a.set_nodelay(true)?;
    b.set_nodelay(true)?;
    Ok((a, b))
}

/// A bare `TcpStream` over loopback: GB/s of one thread writing
/// `chunk`-byte buffers to another, and the one-way time of an
/// eight-byte ping-pong.
fn socket_ceilings(chunk: usize) -> std::io::Result<(f64, f64)> {
    const BULK_BYTES: usize = 256 << 20;
    const PINGS: usize = 2000;
    let chunk = chunk.clamp(4 << 10, 8 << 20);
    let chunks = (BULK_BYTES / chunk).max(1);
    let (mut tx, mut rx) = loopback_pair()?;
    let reader = std::thread::spawn(move || -> std::io::Result<()> {
        let mut buf = vec![0u8; chunk];
        for _ in 0..chunks {
            rx.read_exact(&mut buf)?;
        }
        rx.write_all(&[1])?;
        let mut word = [0u8; 8];
        for _ in 0..PINGS {
            rx.read_exact(&mut word)?;
            rx.write_all(&word)?;
        }
        Ok(())
    });
    let buf = vec![7u8; chunk];
    let t0 = Instant::now();
    for _ in 0..chunks {
        tx.write_all(&buf)?;
    }
    let mut ack = [0u8; 1];
    tx.read_exact(&mut ack)?;
    let bulk_gbps = (chunks * chunk) as f64 / t0.elapsed().as_secs_f64() / 1e9;

    let mut word = [0u8; 8];
    let mut rtt_us = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t0 = Instant::now();
        tx.write_all(&word)?;
        tx.read_exact(&mut word)?;
        rtt_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    reader.join().expect("socket ceiling reader panicked")?;
    Ok((bulk_gbps, crate::stats::median(&rtt_us) / 2.0))
}

/// Measure the host. `tensor_bytes` sizes the socket writes, so the
/// socket ceiling is taken at the message size the workload sends.
pub fn host(tensor_bytes: usize) -> HostCeilings {
    let (llc_mib, array_mib, triad_gbps, memcpy_gbps) = memory_ceilings();
    let (socket_bulk_gbps, socket_pingpong_us) =
        socket_ceilings(tensor_bytes).unwrap_or((f64::NAN, f64::NAN));
    HostCeilings {
        llc_mib,
        array_mib,
        triad_gbps,
        memcpy_gbps,
        socket_bulk_gbps,
        socket_pingpong_us,
    }
}

/// GB/s of the three reduce entry points on `n`-element f32 tensors,
/// counting two reads and one write per element.
#[derive(Debug, Clone, Copy)]
pub struct KernelRates {
    /// `TypedBuf::combine`: typed source, in place.
    pub reduce_gbps: f64,
    /// `TypedBuf::combine_le_bytes`: source still in wire format.
    pub reduce_wire_gbps: f64,
    /// `Payload::reduce_assign` on an aliased destination: the fused
    /// out-of-place `out = dst ⊕ src` pass.
    pub fused_reduce_gbps: f64,
}

/// Run `pass` repeatedly for about `budget`, and return GB/s of the
/// fastest tenth of the passes (one pass moves `n` elements).
fn kernel_gbps(n: usize, budget: Duration, mut pass: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let t_end = Instant::now() + budget;
    while Instant::now() < t_end || times.len() < 10 {
        let t0 = Instant::now();
        pass();
        times.push(t0.elapsed().as_secs_f64());
    }
    let best = crate::stats::Samples::new(times).q(0.1);
    n as f64 * PASS_BYTES_PER_ELEM / best / 1e9
}

pub fn kernels(n: usize, budget: Duration) -> KernelRates {
    let each = budget / 3;
    // Values that stay finite however often they are summed.
    let src = TypedBuf::from(vec![0.0f32; n]);
    let mut dst = TypedBuf::from(vec![1.0f32; n]);
    let reduce_gbps = kernel_gbps(n, each, || {
        dst.combine(black_box(&src), ReduceOp::Sum)
            .expect("same shape");
        black_box(&mut dst);
    });
    let mut wire = Vec::with_capacity(n * 4);
    src.extend_le_bytes(&mut wire);
    let reduce_wire_gbps = kernel_gbps(n, each, || {
        dst.combine_le_bytes(black_box(&wire), ReduceOp::Sum)
            .expect("same shape");
        black_box(&mut dst);
    });
    let src = Payload::new(src);
    let mut acc = Payload::new(dst);
    let fused_reduce_gbps = kernel_gbps(n, each, || {
        let alias = acc.clone();
        acc.reduce_assign(black_box(&src), ReduceOp::Sum)
            .expect("same shape");
        drop(alias);
    });
    KernelRates {
        reduce_gbps,
        reduce_wire_gbps,
        fused_reduce_gbps,
    }
}
