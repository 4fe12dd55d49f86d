//! Layer drives: short loops over one layer's public functions, with
//! inputs shaped like the workload (flow count, ring count, VM count,
//! buffer size, calendar depth). Each returns nanoseconds per operation,
//! the median of several repetitions.

use crate::median;
use resex_core::{
    IoShares, LatencyFeedback, ResExConfig, ResExManager, SlaTarget, VmId, VmSnapshot,
};
use resex_fabric::qp::{RecvRequest, WorkRequest};
use resex_fabric::{
    Access, CompletionQueue, CqNum, Cqe, Fabric, Opcode, QpNum, WcStatus, CQE_SIZE,
};
use resex_finance::{PricingTask, TaskKind};
use resex_hypervisor::{Hypervisor, SchedModel};
use resex_ibmon::CqMonitor;
use resex_simcore::event::EventQueue;
use resex_simcore::time::{SimDuration, SimTime};
use resex_simmem::{ForeignMapping, MemoryHandle};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per drive; the median is reported.
const REPS: usize = 5;

/// What the workload looks like to the layers.
pub struct Shape {
    /// Buffer size of each VM's response flow.
    pub buffers: Vec<u32>,
    /// Requests each VM completes per simulated millisecond (managed run).
    pub rates_per_ms: Vec<f64>,
    /// Which VMs carry an SLA (IOShares reporters).
    pub sla: Vec<bool>,
    /// Mean pending-event count of the event calendar.
    pub calendar_depth: usize,
}

/// Times `REPS` repetitions of `rep`, which performs `ops` operations
/// and may exclude its own set-up by returning the nanoseconds it timed.
fn per_op(ops: u64, mut rep: impl FnMut() -> u64) -> f64 {
    median(
        &(0..REPS)
            .map(|_| rep() as f64 / ops as f64)
            .collect::<Vec<_>>(),
    )
}

/// Tiny xorshift for drive inputs; deterministic from the workload seed.
struct Xs(u64);
impl Xs {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// `EventQueue::schedule_at` + `pop` at the workload's calendar depth:
/// ns per pop/re-schedule pair.
pub fn simcore_queue_ns(shape: &Shape, seed: u64) -> f64 {
    const OPS: u64 = 200_000;
    let depth = shape.calendar_depth.max(1);
    let mut rng = Xs(seed | 1);
    per_op(OPS, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..depth as u64 {
            q.schedule_at(SimTime::from_nanos(rng.next() % 1_000_000), i);
        }
        let t0 = Instant::now();
        for _ in 0..OPS {
            let (t, ev) = q.pop().expect("calendar never drains");
            q.schedule_at(
                t + SimDuration::from_nanos(1 + rng.next() % 1_000_000),
                black_box(ev),
            );
        }
        t0.elapsed().as_nanos() as u64
    })
}

/// One sender-to-receiver queue pair and the requests posted on it.
struct Flow {
    send_qp: QpNum,
    recv_qp: QpNum,
    send_cq: CqNum,
    recv_cq: CqNum,
    send: WorkRequest,
    recv: RecvRequest,
}

/// One response message per flow through the fabric engine —
/// `post_send`, `advance` to idle, `poll_cq` — with the workload's flow
/// count and buffer sizes: ns per message.
pub fn fabric_send_ns(shape: &Shape) -> f64 {
    const ROUNDS: u64 = 20;
    let mem_bytes = shape.buffers.iter().map(|&b| b as u64).sum::<u64>() + (4 << 20);
    let mut f = Fabric::with_defaults();
    let n0 = f.add_node();
    let n1 = f.add_node();
    let m0 = MemoryHandle::new(mem_bytes);
    let m1 = MemoryHandle::new(mem_bytes);
    let pd0 = f.create_pd(n0).expect("pd");
    let pd1 = f.create_pd(n1).expect("pd");
    let u0 = f.create_uar(n0, &m0).expect("uar");
    let u1 = f.create_uar(n1, &m1).expect("uar");
    let flows: Vec<Flow> = shape
        .buffers
        .iter()
        .map(|&len| {
            let send_cq = f.create_cq(n0, &m0, 256).expect("cq");
            let r0 = f.create_cq(n0, &m0, 256).expect("cq");
            let s1 = f.create_cq(n1, &m1, 256).expect("cq");
            let recv_cq = f.create_cq(n1, &m1, 256).expect("cq");
            let send_qp = f.create_qp(n0, pd0, send_cq, r0, 128, 128, u0).expect("qp");
            let recv_qp = f.create_qp(n1, pd1, s1, recv_cq, 128, 128, u1).expect("qp");
            let b0 = m0.alloc_bytes(len as u64).expect("buffer");
            let mr0 = f
                .register_mr(n0, pd0, &m0, b0, len, Access::FULL)
                .expect("mr");
            let b1 = m1.alloc_bytes(len as u64).expect("buffer");
            let mr1 = f
                .register_mr(n1, pd1, &m1, b1, len, Access::FULL)
                .expect("mr");
            f.connect(n0, send_qp, n1, recv_qp).expect("connect");
            Flow {
                send_qp,
                recv_qp,
                send_cq,
                recv_cq,
                send: WorkRequest {
                    wr_id: 0,
                    opcode: Opcode::Send,
                    lkey: mr0.lkey,
                    local_gpa: b0,
                    len,
                    remote: None,
                    imm: 0,
                    signaled: true,
                },
                recv: RecvRequest {
                    wr_id: 0,
                    lkey: mr1.lkey,
                    gpa: b1,
                    len,
                },
            }
        })
        .collect();
    let mut now = SimTime::ZERO;
    let mut wr_id = 0u64;
    per_op(ROUNDS * flows.len() as u64, || {
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            for flow in &flows {
                let recv = RecvRequest { wr_id, ..flow.recv };
                f.post_recv(n1, flow.recv_qp, recv).expect("post_recv");
                let send = WorkRequest { wr_id, ..flow.send };
                f.post_send(n0, flow.send_qp, send, now).expect("post_send");
                wr_id += 1;
            }
            while let Some(t) = f.next_time() {
                now = t;
                black_box(f.advance(t));
            }
            for flow in &flows {
                black_box(f.poll_cq(n0, flow.send_cq, 16).expect("poll"));
                black_box(f.poll_cq(n1, flow.recv_cq, 16).expect("poll"));
            }
        }
        t0.elapsed().as_nanos() as u64
    })
}

/// One charging interval of IBMon telemetry: `CqMonitor::scan` over one
/// 1024-slot ring per VM, each ring fed the completions its VM makes per
/// millisecond in the workload. Returns (ns per interval, bytes
/// allocated per interval).
pub fn ibmon_sample(shape: &Shape) -> (f64, f64) {
    const INTERVALS: u64 = 400;
    const CAPACITY: u32 = 1024;
    /// One VM's completion ring, its monitor, and the traffic fed to it.
    struct Ring {
        cq: CompletionQueue,
        monitor: CqMonitor,
        byte_len: u32,
        per_ms: f64,
        credit: f64,
        counter: u16,
    }
    let ring_bytes = CAPACITY as u64 * CQE_SIZE as u64;
    let mem = MemoryHandle::new(shape.buffers.len() as u64 * ring_bytes + (1 << 20));
    let mut rings: Vec<Ring> = shape
        .buffers
        .iter()
        .zip(&shape.rates_per_ms)
        .enumerate()
        .map(|(i, (&byte_len, &per_ms))| {
            let gpa = mem.alloc_bytes(ring_bytes).expect("ring");
            let cq =
                CompletionQueue::new(CqNum::new(i as u32), mem.clone(), gpa, CAPACITY).expect("cq");
            let map = ForeignMapping::map(&mem, gpa, ring_bytes as usize).expect("mapping");
            Ring {
                cq,
                monitor: CqMonitor::new(map, CAPACITY, 1024).expect("monitor"),
                byte_len,
                per_ms,
                credit: 0.0,
                counter: 0,
            }
        })
        .collect();
    let mut ms = 0u64;
    let mut bytes_per_rep = Vec::new();
    let ns = per_op(INTERVALS, || {
        let mut ns = 0u64;
        let mut bytes = 0u64;
        for _ in 0..INTERVALS {
            ms += 1;
            for r in rings.iter_mut() {
                r.credit += r.per_ms;
                while r.credit >= 1.0 {
                    r.credit -= 1.0;
                    r.cq.push(Cqe {
                        wr_id: r.counter as u64,
                        qp_num: QpNum::new(1),
                        byte_len: r.byte_len,
                        wqe_counter: r.counter,
                        opcode: Opcode::RdmaWriteImm,
                        status: WcStatus::Success,
                        imm_data: 0,
                    })
                    .expect("push");
                    r.cq.poll().expect("poll");
                    r.counter = r.counter.wrapping_add(1);
                }
                let (_, b0) = resex_obs::alloc::thread_counters();
                let t0 = Instant::now();
                black_box(r.monitor.scan(SimTime::from_millis(ms)).expect("scan"));
                ns += t0.elapsed().as_nanos() as u64;
                bytes += resex_obs::alloc::thread_counters().1.wrapping_sub(b0);
            }
        }
        bytes_per_rep.push(bytes as f64 / INTERVALS as f64);
        ns
    });
    (ns, median(&bytes_per_rep))
}

/// `Hypervisor::set_cap` on every VM of the workload, once per simulated
/// millisecond: ns per call.
pub fn hypervisor_set_cap_ns(shape: &Shape) -> f64 {
    const STEPS: u64 = 20_000;
    let mut hv = Hypervisor::new(SchedModel::Fluid);
    let _dom0 = hv.create_domain("dom0", 1 << 20, true);
    let doms: Vec<_> = (0..shape.buffers.len())
        .map(|i| {
            let p = hv.add_pcpu();
            let d = hv.create_domain(format!("vm{i}"), 1 << 20, false);
            let v = hv.add_vcpu(d, p, SimTime::ZERO).expect("vcpu");
            hv.set_polling(v, SimTime::ZERO).expect("polling");
            d
        })
        .collect();
    let mut t = SimTime::ZERO;
    let mut cap = 10u32;
    per_op(STEPS * doms.len() as u64, || {
        let t0 = Instant::now();
        for _ in 0..STEPS {
            t += SimDuration::from_millis(1);
            cap = if cap >= 100 { 10 } else { cap + 10 };
            for &d in &doms {
                hv.set_cap(d, cap, t).expect("set_cap");
            }
            black_box(hv.next_time());
        }
        t0.elapsed().as_nanos() as u64
    })
}

/// One request's pricing work, as every BenchEx server runs it: a batch
/// of eight closed-form quotes. ns per request.
pub fn finance_batch_ns(seed: u64) -> f64 {
    const OPS: u64 = 200_000;
    let mut s = seed;
    per_op(OPS, || {
        let t0 = Instant::now();
        for _ in 0..OPS {
            s = s.wrapping_add(1);
            let task = PricingTask {
                kind: TaskKind::Quote,
                n_options: 8,
                seed: s,
            };
            black_box(task.execute());
        }
        t0.elapsed().as_nanos() as u64
    })
}

/// `ResExManager::on_interval` under IOShares with the workload's VMs,
/// SLAs and per-interval traffic: ns per interval.
pub fn core_on_interval_ns(shape: &Shape) -> f64 {
    const INTERVALS: u64 = 20_000;
    let n = shape.buffers.len();
    let sla = SlaTarget {
        base_mean_us: 209.0,
        base_std_us: 2.0,
    };
    let policy = IoShares::new(
        (0..n)
            .filter(|&i| shape.sla[i])
            .map(|i| (VmId::new(i as u32), sla)),
    );
    let mut mgr = ResExManager::new(ResExConfig::default(), Box::new(policy)).expect("manager");
    for i in 0..n {
        mgr.register_vm(VmId::new(i as u32), 1);
    }
    let snaps: Vec<(VmId, VmSnapshot)> = (0..n)
        .map(|i| {
            let len = shape.buffers[i] as f64;
            let rate = shape.rates_per_ms[i];
            (
                VmId::new(i as u32),
                VmSnapshot {
                    mtus: (rate * len / 1024.0).round() as u64,
                    cpu_pct: 100.0,
                    latency: shape.sla[i].then_some(LatencyFeedback {
                        mean_us: 230.0,
                        std_us: 4.0,
                        count: rate.round().max(1.0) as u64,
                    }),
                    est_buffer_bytes: len,
                    stale: false,
                },
            )
        })
        .collect();
    let mut t = SimTime::ZERO;
    per_op(INTERVALS, || {
        let t0 = Instant::now();
        for _ in 0..INTERVALS {
            t += SimDuration::from_millis(1);
            black_box(mgr.on_interval(t, &snaps));
        }
        t0.elapsed().as_nanos() as u64
    })
}
