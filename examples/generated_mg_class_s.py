"""Generated by repro.sac.codegen — shape-specialized NumPy code.

Function: FinalResidual
Specialization: FinalResidual(v: double[34,34,34], iter = 4)

One def per (SAC function or counted loop, argument signature), and a
second where its callers hand over an argument they are done with: a
parameter marked donated is the def's own to write into and return.  xN
is the number of call sites in this module:
  SetupAxis__34x34x34(a: double[34,34,34], d = 0)  x1
  SetupAxis__34x34x34_v1_d(a: double[34,34,34] donated, d = 1)  x2
  SetupAxis__34x34x34_v2_d(a: double[34,34,34] donated, d = 2)  x2
  SetupPeriodicBorder__34x34x34(a: double[34,34,34])  x2
  Resid__34x34x34(u: double[34,34,34])  x2
  Fine2Coarse__34x34x34(r: double[34,34,34])  x1
  SetupAxis__18x18x18(a: double[18,18,18], d = 0)  x1
  SetupAxis__18x18x18_v1_d(a: double[18,18,18] donated, d = 1)  x2
  SetupAxis__18x18x18_v2_d(a: double[18,18,18] donated, d = 2)  x2
  SetupPeriodicBorder__18x18x18(a: double[18,18,18])  x2
  Fine2Coarse__18x18x18(r: double[18,18,18])  x1
  SetupAxis__10x10x10(a: double[10,10,10], d = 0)  x1
  SetupAxis__10x10x10_v1_d(a: double[10,10,10] donated, d = 1)  x2
  SetupAxis__10x10x10_v2_d(a: double[10,10,10] donated, d = 2)  x2
  SetupPeriodicBorder__10x10x10(a: double[10,10,10])  x2
  Fine2Coarse__10x10x10(r: double[10,10,10])  x1
  SetupAxis__6x6x6(a: double[6,6,6], d = 0)  x1
  SetupAxis__6x6x6_v1_d(a: double[6,6,6] donated, d = 1)  x2
  SetupAxis__6x6x6_v2_d(a: double[6,6,6] donated, d = 2)  x2
  SetupPeriodicBorder__6x6x6(a: double[6,6,6])  x2
  Fine2Coarse__6x6x6(r: double[6,6,6])  x1
  SetupAxis__4x4x4_d(a: double[4,4,4] donated, d = 0)  x1
  SetupAxis__4x4x4_v1_d(a: double[4,4,4] donated, d = 1)  x1
  SetupAxis__4x4x4_v2_d(a: double[4,4,4] donated, d = 2)  x1
  SetupPeriodicBorder__4x4x4_d(a: double[4,4,4] donated)  x2
  Smooth__4x4x4_d(r: double[4,4,4] donated)  x1
  VCycle__4x4x4_d(r: double[4,4,4] donated)  x1
  Coarse2Fine__4x4x4_d(rn: double[4,4,4] donated)  x1
  Resid__6x6x6(u: double[6,6,6])  x1
  SetupAxis__6x6x6_d(a: double[6,6,6] donated, d = 0)  x1
  SetupPeriodicBorder__6x6x6_d(a: double[6,6,6] donated)  x2
  Smooth__6x6x6_d(r: double[6,6,6] donated)  x1
  VCycle__6x6x6_d(r: double[6,6,6] donated)  x1
  Coarse2Fine__6x6x6_d(rn: double[6,6,6] donated)  x1
  Resid__10x10x10(u: double[10,10,10])  x1
  SetupAxis__10x10x10_d(a: double[10,10,10] donated, d = 0)  x1
  SetupPeriodicBorder__10x10x10_d(a: double[10,10,10] donated)  x2
  Smooth__10x10x10_d(r: double[10,10,10] donated)  x1
  VCycle__10x10x10_d(r: double[10,10,10] donated)  x1
  Coarse2Fine__10x10x10_d(rn: double[10,10,10] donated)  x1
  Resid__18x18x18(u: double[18,18,18])  x1
  SetupAxis__18x18x18_d(a: double[18,18,18] donated, d = 0)  x1
  SetupPeriodicBorder__18x18x18_d(a: double[18,18,18] donated)  x2
  Smooth__18x18x18_d(r: double[18,18,18] donated)  x1
  VCycle__18x18x18_d(r: double[18,18,18] donated)  x1
  Coarse2Fine__18x18x18_d(rn: double[18,18,18] donated)  x1
  SetupAxis__34x34x34_d(a: double[34,34,34] donated, d = 0)  x1
  SetupPeriodicBorder__34x34x34_d(a: double[34,34,34] donated)  x2
  Smooth__34x34x34_d(r: double[34,34,34] donated)  x1
  VCycle__34x34x34_d(r: double[34,34,34] donated)  x1
  MGrid_loop__34x34x34_34x34x34_d1(v: double[34,34,34], u: double[34,34,34] donated)  x1
  MGrid__34x34x34(v: double[34,34,34], iter = 4)  x1
  Resid__34x34x34_d(u: double[34,34,34] donated)  x1
"""

import numpy as np


def _sac_idiv(a, b):
    q = np.floor_divide(a, b)
    r = a - b * q
    return q + ((r != 0) & ((np.asarray(a) < 0) != (np.asarray(b) < 0)))


def _sac_imod(a, b):
    return a - b * _sac_idiv(a, b)


def SetupAxis__34x34x34(a):
    _t1 = a[32:33, 0:34, 0:34]
    _t2 = a.copy()
    _t2[0:1, 0:34, 0:34] = _t1
    _t3 = _t2[1:2, 0:34, 0:34]
    _t2[33:34, 0:34, 0:34] = _t3
    return _t2

def SetupAxis__34x34x34_v1_d(a):
    _t1 = a[0:34, 32:33, 0:34]
    a[0:34, 0:1, 0:34] = _t1
    _t3 = a[0:34, 1:2, 0:34]
    a[0:34, 33:34, 0:34] = _t3
    return a

def SetupAxis__34x34x34_v2_d(a):
    _t1 = a[0:34, 0:34, 32:33]
    a[0:34, 0:34, 0:1] = _t1
    _t3 = a[0:34, 0:34, 1:2]
    a[0:34, 0:34, 33:34] = _t3
    return a

def SetupPeriodicBorder__34x34x34(a):
    _t1 = SetupAxis__34x34x34(a)
    _t2 = SetupAxis__34x34x34_v1_d(_t1)
    del _t1
    _t3 = SetupAxis__34x34x34_v2_d(_t2)
    del _t2
    return _t3

def Resid__34x34x34(u):
    _t1 = SetupPeriodicBorder__34x34x34(u)
    _t9 = _t1.reshape(-1)
    _t2 = _t9[0:36924]
    _t3 = _t9[68:36992]
    _t4, _t13 = np.empty((2, 36924), dtype=np.float64)
    np.add(_t2, _t3, out=_t4)
    _t5 = _t9[2312:39236]
    np.add(_t4, _t5, out=_t4)
    _t7 = _t9[2380:39304]
    np.add(_t4, _t7, out=_t4)
    _t11 = _t9[1156:38080]
    _t12 = _t9[1224:38148]
    np.add(_t11, _t12, out=_t13)
    _t14 = _t9[34:36958]
    np.add(_t13, _t14, out=_t13)
    _t16 = _t9[2346:39270]
    np.add(_t13, _t16, out=_t13)
    _t19 = _t4[0:36922]
    _t20 = _t4[2:36924]
    _t21 = (_t19 + _t20)
    np.multiply(0.08333333333333333, _t21, out=_t21)
    _t23 = _t4[1:36923]
    _t24 = _t13[0:36922]
    np.add(_t23, _t24, out=_t23)
    _t26 = _t13[2:36924]
    np.add(_t23, _t26, out=_t23)
    np.multiply(0.16666666666666666, _t23, out=_t23)
    np.add(_t21, _t23, out=_t21)
    del _t4, _t19, _t20, _t23
    _t30 = _t9[1191:38113]
    _t31 = _t13[0:36922]
    np.multiply(-2.6666666666666665, _t30, out=_t31)
    np.add(_t21, _t31, out=_t21)
    del _t13, _t24, _t26, _t31
    _t1[1:33, 1:33, 1:33] = np.ndarray((32, 32, 32), np.float64, _t21, 0, (9248, 272, 8))
    del _t21
    return _t1

def Fine2Coarse__34x34x34(r):
    _t1 = SetupPeriodicBorder__34x34x34(r)
    _t2 = _t1[0:33:2, 0:33:2, 0:33:2]
    _t3 = np.zeros((18, 18, 18), dtype=np.float64)
    _t3[0:17, 0:17, 0:17] = _t2
    _t4 = _t1[1:32:2, 1:32:2, 1:32:2]
    _t5 = _t1[1:32:2, 1:32:2, 3:34:2]
    _t6 = (_t4 + _t5)
    _t7 = _t1[1:32:2, 3:34:2, 1:32:2]
    np.add(_t6, _t7, out=_t6)
    _t9 = _t1[1:32:2, 3:34:2, 3:34:2]
    np.add(_t6, _t9, out=_t6)
    _t11 = _t1[3:34:2, 1:32:2, 1:32:2]
    np.add(_t6, _t11, out=_t6)
    _t13 = _t1[3:34:2, 1:32:2, 3:34:2]
    np.add(_t6, _t13, out=_t6)
    _t15 = _t1[3:34:2, 3:34:2, 1:32:2]
    np.add(_t6, _t15, out=_t6)
    _t17 = _t1[3:34:2, 3:34:2, 3:34:2]
    np.add(_t6, _t17, out=_t6)
    np.multiply(0.0625, _t6, out=_t6)
    _t20 = _t1[1:32:2, 1:32:2, 2:33:2]
    _t21 = _t1[1:32:2, 2:33:2, 1:32:2]
    _t22 = (_t20 + _t21)
    _t23 = _t1[1:32:2, 2:33:2, 3:34:2]
    np.add(_t22, _t23, out=_t22)
    _t25 = _t1[1:32:2, 3:34:2, 2:33:2]
    np.add(_t22, _t25, out=_t22)
    _t27 = _t1[2:33:2, 1:32:2, 1:32:2]
    np.add(_t22, _t27, out=_t22)
    _t29 = _t1[2:33:2, 1:32:2, 3:34:2]
    np.add(_t22, _t29, out=_t22)
    _t31 = _t1[2:33:2, 3:34:2, 1:32:2]
    np.add(_t22, _t31, out=_t22)
    _t33 = _t1[2:33:2, 3:34:2, 3:34:2]
    np.add(_t22, _t33, out=_t22)
    _t35 = _t1[3:34:2, 1:32:2, 2:33:2]
    np.add(_t22, _t35, out=_t22)
    _t37 = _t1[3:34:2, 2:33:2, 1:32:2]
    np.add(_t22, _t37, out=_t22)
    _t39 = _t1[3:34:2, 2:33:2, 3:34:2]
    np.add(_t22, _t39, out=_t22)
    _t41 = _t1[3:34:2, 3:34:2, 2:33:2]
    np.add(_t22, _t41, out=_t22)
    np.multiply(0.125, _t22, out=_t22)
    np.add(_t6, _t22, out=_t6)
    del _t22
    _t45 = _t1[1:32:2, 2:33:2, 2:33:2]
    _t46 = _t1[2:33:2, 1:32:2, 2:33:2]
    _t47 = (_t45 + _t46)
    _t48 = _t1[2:33:2, 2:33:2, 1:32:2]
    np.add(_t47, _t48, out=_t47)
    _t50 = _t1[2:33:2, 2:33:2, 3:34:2]
    np.add(_t47, _t50, out=_t47)
    _t52 = _t1[2:33:2, 3:34:2, 2:33:2]
    np.add(_t47, _t52, out=_t47)
    _t54 = _t1[3:34:2, 2:33:2, 2:33:2]
    np.add(_t47, _t54, out=_t47)
    np.multiply(0.25, _t47, out=_t47)
    np.add(_t6, _t47, out=_t6)
    del _t47
    _t58 = _t1[2:33:2, 2:33:2, 2:33:2]
    _t59 = (0.5 * _t58)
    del _t1, _t2, _t4, _t5, _t7, _t9, _t11, _t13, _t15, _t17, _t20, _t21, _t23, _t25, _t27, _t29, _t31, _t33, _t35, _t37, _t39, _t41, _t45, _t46, _t48, _t50, _t52, _t54, _t58
    np.add(_t6, _t59, out=_t6)
    del _t59
    _t3[1:17, 1:17, 1:17] = _t6
    del _t6
    return _t3

def SetupAxis__18x18x18(a):
    _t1 = a[16:17, 0:18, 0:18]
    _t2 = a.copy()
    _t2[0:1, 0:18, 0:18] = _t1
    _t3 = _t2[1:2, 0:18, 0:18]
    _t2[17:18, 0:18, 0:18] = _t3
    return _t2

def SetupAxis__18x18x18_v1_d(a):
    _t1 = a[0:18, 16:17, 0:18]
    a[0:18, 0:1, 0:18] = _t1
    _t3 = a[0:18, 1:2, 0:18]
    a[0:18, 17:18, 0:18] = _t3
    return a

def SetupAxis__18x18x18_v2_d(a):
    _t1 = a[0:18, 0:18, 16:17]
    a[0:18, 0:18, 0:1] = _t1
    _t3 = a[0:18, 0:18, 1:2]
    a[0:18, 0:18, 17:18] = _t3
    return a

def SetupPeriodicBorder__18x18x18(a):
    _t1 = SetupAxis__18x18x18(a)
    _t2 = SetupAxis__18x18x18_v1_d(_t1)
    del _t1
    _t3 = SetupAxis__18x18x18_v2_d(_t2)
    del _t2
    return _t3

def Fine2Coarse__18x18x18(r):
    _t1 = SetupPeriodicBorder__18x18x18(r)
    _t2 = _t1[0:17:2, 0:17:2, 0:17:2]
    _t3 = np.zeros((10, 10, 10), dtype=np.float64)
    _t3[0:9, 0:9, 0:9] = _t2
    _t4 = _t1[1:16:2, 1:16:2, 1:16:2]
    _t5 = _t1[1:16:2, 1:16:2, 3:18:2]
    _t6 = (_t4 + _t5)
    _t7 = _t1[1:16:2, 3:18:2, 1:16:2]
    np.add(_t6, _t7, out=_t6)
    _t9 = _t1[1:16:2, 3:18:2, 3:18:2]
    np.add(_t6, _t9, out=_t6)
    _t11 = _t1[3:18:2, 1:16:2, 1:16:2]
    np.add(_t6, _t11, out=_t6)
    _t13 = _t1[3:18:2, 1:16:2, 3:18:2]
    np.add(_t6, _t13, out=_t6)
    _t15 = _t1[3:18:2, 3:18:2, 1:16:2]
    np.add(_t6, _t15, out=_t6)
    _t17 = _t1[3:18:2, 3:18:2, 3:18:2]
    np.add(_t6, _t17, out=_t6)
    np.multiply(0.0625, _t6, out=_t6)
    _t20 = _t1[1:16:2, 1:16:2, 2:17:2]
    _t21 = _t1[1:16:2, 2:17:2, 1:16:2]
    _t22 = (_t20 + _t21)
    _t23 = _t1[1:16:2, 2:17:2, 3:18:2]
    np.add(_t22, _t23, out=_t22)
    _t25 = _t1[1:16:2, 3:18:2, 2:17:2]
    np.add(_t22, _t25, out=_t22)
    _t27 = _t1[2:17:2, 1:16:2, 1:16:2]
    np.add(_t22, _t27, out=_t22)
    _t29 = _t1[2:17:2, 1:16:2, 3:18:2]
    np.add(_t22, _t29, out=_t22)
    _t31 = _t1[2:17:2, 3:18:2, 1:16:2]
    np.add(_t22, _t31, out=_t22)
    _t33 = _t1[2:17:2, 3:18:2, 3:18:2]
    np.add(_t22, _t33, out=_t22)
    _t35 = _t1[3:18:2, 1:16:2, 2:17:2]
    np.add(_t22, _t35, out=_t22)
    _t37 = _t1[3:18:2, 2:17:2, 1:16:2]
    np.add(_t22, _t37, out=_t22)
    _t39 = _t1[3:18:2, 2:17:2, 3:18:2]
    np.add(_t22, _t39, out=_t22)
    _t41 = _t1[3:18:2, 3:18:2, 2:17:2]
    np.add(_t22, _t41, out=_t22)
    np.multiply(0.125, _t22, out=_t22)
    np.add(_t6, _t22, out=_t6)
    del _t22
    _t45 = _t1[1:16:2, 2:17:2, 2:17:2]
    _t46 = _t1[2:17:2, 1:16:2, 2:17:2]
    _t47 = (_t45 + _t46)
    _t48 = _t1[2:17:2, 2:17:2, 1:16:2]
    np.add(_t47, _t48, out=_t47)
    _t50 = _t1[2:17:2, 2:17:2, 3:18:2]
    np.add(_t47, _t50, out=_t47)
    _t52 = _t1[2:17:2, 3:18:2, 2:17:2]
    np.add(_t47, _t52, out=_t47)
    _t54 = _t1[3:18:2, 2:17:2, 2:17:2]
    np.add(_t47, _t54, out=_t47)
    np.multiply(0.25, _t47, out=_t47)
    np.add(_t6, _t47, out=_t6)
    del _t47
    _t58 = _t1[2:17:2, 2:17:2, 2:17:2]
    _t59 = (0.5 * _t58)
    del _t1, _t2, _t4, _t5, _t7, _t9, _t11, _t13, _t15, _t17, _t20, _t21, _t23, _t25, _t27, _t29, _t31, _t33, _t35, _t37, _t39, _t41, _t45, _t46, _t48, _t50, _t52, _t54, _t58
    np.add(_t6, _t59, out=_t6)
    del _t59
    _t3[1:9, 1:9, 1:9] = _t6
    del _t6
    return _t3

def SetupAxis__10x10x10(a):
    _t1 = a[8:9, 0:10, 0:10]
    _t2 = a.copy()
    _t2[0:1, 0:10, 0:10] = _t1
    _t3 = _t2[1:2, 0:10, 0:10]
    _t2[9:10, 0:10, 0:10] = _t3
    return _t2

def SetupAxis__10x10x10_v1_d(a):
    _t1 = a[0:10, 8:9, 0:10]
    a[0:10, 0:1, 0:10] = _t1
    _t3 = a[0:10, 1:2, 0:10]
    a[0:10, 9:10, 0:10] = _t3
    return a

def SetupAxis__10x10x10_v2_d(a):
    _t1 = a[0:10, 0:10, 8:9]
    a[0:10, 0:10, 0:1] = _t1
    _t3 = a[0:10, 0:10, 1:2]
    a[0:10, 0:10, 9:10] = _t3
    return a

def SetupPeriodicBorder__10x10x10(a):
    _t1 = SetupAxis__10x10x10(a)
    _t2 = SetupAxis__10x10x10_v1_d(_t1)
    del _t1
    _t3 = SetupAxis__10x10x10_v2_d(_t2)
    del _t2
    return _t3

def Fine2Coarse__10x10x10(r):
    _t1 = SetupPeriodicBorder__10x10x10(r)
    _t2 = _t1[0:9:2, 0:9:2, 0:9:2]
    _t3 = np.zeros((6, 6, 6), dtype=np.float64)
    _t3[0:5, 0:5, 0:5] = _t2
    _t4 = _t1[1:8:2, 1:8:2, 1:8:2]
    _t5 = _t1[1:8:2, 1:8:2, 3:10:2]
    _t6 = (_t4 + _t5)
    _t7 = _t1[1:8:2, 3:10:2, 1:8:2]
    np.add(_t6, _t7, out=_t6)
    _t9 = _t1[1:8:2, 3:10:2, 3:10:2]
    np.add(_t6, _t9, out=_t6)
    _t11 = _t1[3:10:2, 1:8:2, 1:8:2]
    np.add(_t6, _t11, out=_t6)
    _t13 = _t1[3:10:2, 1:8:2, 3:10:2]
    np.add(_t6, _t13, out=_t6)
    _t15 = _t1[3:10:2, 3:10:2, 1:8:2]
    np.add(_t6, _t15, out=_t6)
    _t17 = _t1[3:10:2, 3:10:2, 3:10:2]
    np.add(_t6, _t17, out=_t6)
    np.multiply(0.0625, _t6, out=_t6)
    _t20 = _t1[1:8:2, 1:8:2, 2:9:2]
    _t21 = _t1[1:8:2, 2:9:2, 1:8:2]
    _t22 = (_t20 + _t21)
    _t23 = _t1[1:8:2, 2:9:2, 3:10:2]
    np.add(_t22, _t23, out=_t22)
    _t25 = _t1[1:8:2, 3:10:2, 2:9:2]
    np.add(_t22, _t25, out=_t22)
    _t27 = _t1[2:9:2, 1:8:2, 1:8:2]
    np.add(_t22, _t27, out=_t22)
    _t29 = _t1[2:9:2, 1:8:2, 3:10:2]
    np.add(_t22, _t29, out=_t22)
    _t31 = _t1[2:9:2, 3:10:2, 1:8:2]
    np.add(_t22, _t31, out=_t22)
    _t33 = _t1[2:9:2, 3:10:2, 3:10:2]
    np.add(_t22, _t33, out=_t22)
    _t35 = _t1[3:10:2, 1:8:2, 2:9:2]
    np.add(_t22, _t35, out=_t22)
    _t37 = _t1[3:10:2, 2:9:2, 1:8:2]
    np.add(_t22, _t37, out=_t22)
    _t39 = _t1[3:10:2, 2:9:2, 3:10:2]
    np.add(_t22, _t39, out=_t22)
    _t41 = _t1[3:10:2, 3:10:2, 2:9:2]
    np.add(_t22, _t41, out=_t22)
    np.multiply(0.125, _t22, out=_t22)
    np.add(_t6, _t22, out=_t6)
    del _t22
    _t45 = _t1[1:8:2, 2:9:2, 2:9:2]
    _t46 = _t1[2:9:2, 1:8:2, 2:9:2]
    _t47 = (_t45 + _t46)
    _t48 = _t1[2:9:2, 2:9:2, 1:8:2]
    np.add(_t47, _t48, out=_t47)
    _t50 = _t1[2:9:2, 2:9:2, 3:10:2]
    np.add(_t47, _t50, out=_t47)
    _t52 = _t1[2:9:2, 3:10:2, 2:9:2]
    np.add(_t47, _t52, out=_t47)
    _t54 = _t1[3:10:2, 2:9:2, 2:9:2]
    np.add(_t47, _t54, out=_t47)
    np.multiply(0.25, _t47, out=_t47)
    np.add(_t6, _t47, out=_t6)
    del _t47
    _t58 = _t1[2:9:2, 2:9:2, 2:9:2]
    _t59 = (0.5 * _t58)
    del _t1, _t2, _t4, _t5, _t7, _t9, _t11, _t13, _t15, _t17, _t20, _t21, _t23, _t25, _t27, _t29, _t31, _t33, _t35, _t37, _t39, _t41, _t45, _t46, _t48, _t50, _t52, _t54, _t58
    np.add(_t6, _t59, out=_t6)
    del _t59
    _t3[1:5, 1:5, 1:5] = _t6
    del _t6
    return _t3

def SetupAxis__6x6x6(a):
    _t1 = a[4:5, 0:6, 0:6]
    _t2 = a.copy()
    _t2[0:1, 0:6, 0:6] = _t1
    _t3 = _t2[1:2, 0:6, 0:6]
    _t2[5:6, 0:6, 0:6] = _t3
    return _t2

def SetupAxis__6x6x6_v1_d(a):
    _t1 = a[0:6, 4:5, 0:6]
    a[0:6, 0:1, 0:6] = _t1
    _t3 = a[0:6, 1:2, 0:6]
    a[0:6, 5:6, 0:6] = _t3
    return a

def SetupAxis__6x6x6_v2_d(a):
    _t1 = a[0:6, 0:6, 4:5]
    a[0:6, 0:6, 0:1] = _t1
    _t3 = a[0:6, 0:6, 1:2]
    a[0:6, 0:6, 5:6] = _t3
    return a

def SetupPeriodicBorder__6x6x6(a):
    _t1 = SetupAxis__6x6x6(a)
    _t2 = SetupAxis__6x6x6_v1_d(_t1)
    del _t1
    _t3 = SetupAxis__6x6x6_v2_d(_t2)
    del _t2
    return _t3

def Fine2Coarse__6x6x6(r):
    _t1 = SetupPeriodicBorder__6x6x6(r)
    _t2 = _t1[0:5:2, 0:5:2, 0:5:2]
    _t3 = np.zeros((4, 4, 4), dtype=np.float64)
    _t3[0:3, 0:3, 0:3] = _t2
    _t4 = _t1[1:4:2, 1:4:2, 1:4:2]
    _t5 = _t1[1:4:2, 1:4:2, 3:6:2]
    _t6 = (_t4 + _t5)
    _t7 = _t1[1:4:2, 3:6:2, 1:4:2]
    np.add(_t6, _t7, out=_t6)
    _t9 = _t1[1:4:2, 3:6:2, 3:6:2]
    np.add(_t6, _t9, out=_t6)
    _t11 = _t1[3:6:2, 1:4:2, 1:4:2]
    np.add(_t6, _t11, out=_t6)
    _t13 = _t1[3:6:2, 1:4:2, 3:6:2]
    np.add(_t6, _t13, out=_t6)
    _t15 = _t1[3:6:2, 3:6:2, 1:4:2]
    np.add(_t6, _t15, out=_t6)
    _t17 = _t1[3:6:2, 3:6:2, 3:6:2]
    np.add(_t6, _t17, out=_t6)
    np.multiply(0.0625, _t6, out=_t6)
    _t20 = _t1[1:4:2, 1:4:2, 2:5:2]
    _t21 = _t1[1:4:2, 2:5:2, 1:4:2]
    _t22 = (_t20 + _t21)
    _t23 = _t1[1:4:2, 2:5:2, 3:6:2]
    np.add(_t22, _t23, out=_t22)
    _t25 = _t1[1:4:2, 3:6:2, 2:5:2]
    np.add(_t22, _t25, out=_t22)
    _t27 = _t1[2:5:2, 1:4:2, 1:4:2]
    np.add(_t22, _t27, out=_t22)
    _t29 = _t1[2:5:2, 1:4:2, 3:6:2]
    np.add(_t22, _t29, out=_t22)
    _t31 = _t1[2:5:2, 3:6:2, 1:4:2]
    np.add(_t22, _t31, out=_t22)
    _t33 = _t1[2:5:2, 3:6:2, 3:6:2]
    np.add(_t22, _t33, out=_t22)
    _t35 = _t1[3:6:2, 1:4:2, 2:5:2]
    np.add(_t22, _t35, out=_t22)
    _t37 = _t1[3:6:2, 2:5:2, 1:4:2]
    np.add(_t22, _t37, out=_t22)
    _t39 = _t1[3:6:2, 2:5:2, 3:6:2]
    np.add(_t22, _t39, out=_t22)
    _t41 = _t1[3:6:2, 3:6:2, 2:5:2]
    np.add(_t22, _t41, out=_t22)
    np.multiply(0.125, _t22, out=_t22)
    np.add(_t6, _t22, out=_t6)
    del _t22
    _t45 = _t1[1:4:2, 2:5:2, 2:5:2]
    _t46 = _t1[2:5:2, 1:4:2, 2:5:2]
    _t47 = (_t45 + _t46)
    _t48 = _t1[2:5:2, 2:5:2, 1:4:2]
    np.add(_t47, _t48, out=_t47)
    _t50 = _t1[2:5:2, 2:5:2, 3:6:2]
    np.add(_t47, _t50, out=_t47)
    _t52 = _t1[2:5:2, 3:6:2, 2:5:2]
    np.add(_t47, _t52, out=_t47)
    _t54 = _t1[3:6:2, 2:5:2, 2:5:2]
    np.add(_t47, _t54, out=_t47)
    np.multiply(0.25, _t47, out=_t47)
    np.add(_t6, _t47, out=_t6)
    del _t47
    _t58 = _t1[2:5:2, 2:5:2, 2:5:2]
    _t59 = (0.5 * _t58)
    del _t1, _t2, _t4, _t5, _t7, _t9, _t11, _t13, _t15, _t17, _t20, _t21, _t23, _t25, _t27, _t29, _t31, _t33, _t35, _t37, _t39, _t41, _t45, _t46, _t48, _t50, _t52, _t54, _t58
    np.add(_t6, _t59, out=_t6)
    del _t59
    _t3[1:3, 1:3, 1:3] = _t6
    del _t6
    return _t3

def SetupAxis__4x4x4_d(a):
    _t1 = a[2:3, 0:4, 0:4]
    a[0:1, 0:4, 0:4] = _t1
    _t3 = a[1:2, 0:4, 0:4]
    a[3:4, 0:4, 0:4] = _t3
    return a

def SetupAxis__4x4x4_v1_d(a):
    _t1 = a[0:4, 2:3, 0:4]
    a[0:4, 0:1, 0:4] = _t1
    _t3 = a[0:4, 1:2, 0:4]
    a[0:4, 3:4, 0:4] = _t3
    return a

def SetupAxis__4x4x4_v2_d(a):
    _t1 = a[0:4, 0:4, 2:3]
    a[0:4, 0:4, 0:1] = _t1
    _t3 = a[0:4, 0:4, 1:2]
    a[0:4, 0:4, 3:4] = _t3
    return a

def SetupPeriodicBorder__4x4x4_d(a):
    _t1 = SetupAxis__4x4x4_d(a)
    _t2 = SetupAxis__4x4x4_v1_d(_t1)
    del _t1
    _t3 = SetupAxis__4x4x4_v2_d(_t2)
    del _t2
    return _t3

def Smooth__4x4x4_d(r):
    _t1 = SetupPeriodicBorder__4x4x4_d(r)
    _t9 = _t1.reshape(-1)
    _t2 = _t9[16:40]
    _t3 = _t9[24:48]
    _t4 = (_t2 + _t3)
    _t5 = _t9[4:28]
    np.add(_t4, _t5, out=_t4)
    _t7 = _t9[36:60]
    np.add(_t4, _t7, out=_t4)
    _t11 = _t9[1:23]
    _t12 = _t9[9:31]
    _t13 = (_t11 + _t12)
    _t14 = _t9[33:55]
    np.add(_t13, _t14, out=_t13)
    _t16 = _t9[41:63]
    np.add(_t13, _t16, out=_t13)
    _t18 = _t4[0:22]
    np.add(_t13, _t18, out=_t13)
    _t20 = _t4[2:24]
    np.add(_t13, _t20, out=_t13)
    np.multiply(-0.015625, _t13, out=_t13)
    _t23 = _t9[20:42]
    _t24 = _t9[22:44]
    _t25 = (_t23 + _t24)
    _t26 = _t4[1:23]
    np.add(_t25, _t26, out=_t25)
    np.multiply(0.03125, _t25, out=_t25)
    np.add(_t13, _t25, out=_t13)
    del _t25
    _t30 = _t9[21:43]
    _t31 = _t4[0:22]
    np.multiply(-0.375, _t30, out=_t31)
    np.add(_t13, _t31, out=_t13)
    del _t4, _t18, _t20, _t26, _t31
    _t1[1:3, 1:3, 1:3] = np.ndarray((2, 2, 2), np.float64, _t13, 0, (128, 32, 8))
    del _t13
    return _t1

def VCycle__4x4x4_d(r):
    _t1 = Smooth__4x4x4_d(r)
    return _t1

def Coarse2Fine__4x4x4_d(rn):
    _t1 = SetupPeriodicBorder__4x4x4_d(rn)
    _t2 = _t1[0:3, 0:3, 0:3]
    _t3 = np.zeros((6, 6, 6), dtype=np.float64)
    _t3[0:5:2, 0:5:2, 0:5:2] = _t2
    _t4 = _t1[1:3, 1:3, 1:3]
    _t3[2:5:2, 2:5:2, 2:5:2] = _t4
    _t6 = _t1[1:3, 1:3, 0:2]
    _t7 = _t1[1:3, 1:3, 1:3]
    _t8 = (_t6 + _t7)
    np.multiply(0.5, _t8, out=_t8)
    _t3[2:5:2, 2:5:2, 1:4:2] = _t8
    del _t8
    _t11 = _t1[1:3, 0:2, 1:3]
    _t12 = _t1[1:3, 1:3, 1:3]
    _t13 = (_t11 + _t12)
    np.multiply(0.5, _t13, out=_t13)
    _t3[2:5:2, 1:4:2, 2:5:2] = _t13
    del _t13
    _t16 = _t1[1:3, 0:2, 0:2]
    _t17 = _t1[1:3, 0:2, 1:3]
    _t18 = (_t16 + _t17)
    _t19 = _t1[1:3, 1:3, 0:2]
    np.add(_t18, _t19, out=_t18)
    _t21 = _t1[1:3, 1:3, 1:3]
    np.add(_t18, _t21, out=_t18)
    np.multiply(0.25, _t18, out=_t18)
    _t3[2:5:2, 1:4:2, 1:4:2] = _t18
    del _t18
    _t25 = _t1[0:2, 1:3, 1:3]
    _t26 = _t1[1:3, 1:3, 1:3]
    _t27 = (_t25 + _t26)
    np.multiply(0.5, _t27, out=_t27)
    _t3[1:4:2, 2:5:2, 2:5:2] = _t27
    del _t27
    _t30 = _t1[0:2, 1:3, 0:2]
    _t31 = _t1[0:2, 1:3, 1:3]
    _t32 = (_t30 + _t31)
    _t33 = _t1[1:3, 1:3, 0:2]
    np.add(_t32, _t33, out=_t32)
    _t35 = _t1[1:3, 1:3, 1:3]
    np.add(_t32, _t35, out=_t32)
    np.multiply(0.25, _t32, out=_t32)
    _t3[1:4:2, 2:5:2, 1:4:2] = _t32
    del _t32
    _t39 = _t1[0:2, 0:2, 1:3]
    _t40 = _t1[0:2, 1:3, 1:3]
    _t41 = (_t39 + _t40)
    _t42 = _t1[1:3, 0:2, 1:3]
    np.add(_t41, _t42, out=_t41)
    _t44 = _t1[1:3, 1:3, 1:3]
    np.add(_t41, _t44, out=_t41)
    np.multiply(0.25, _t41, out=_t41)
    _t3[1:4:2, 1:4:2, 2:5:2] = _t41
    del _t41
    _t48 = _t1[0:2, 0:2, 0:2]
    _t49 = _t1[0:2, 0:2, 1:3]
    _t50 = (_t48 + _t49)
    _t51 = _t1[0:2, 1:3, 0:2]
    np.add(_t50, _t51, out=_t50)
    _t53 = _t1[0:2, 1:3, 1:3]
    np.add(_t50, _t53, out=_t50)
    _t55 = _t1[1:3, 0:2, 0:2]
    np.add(_t50, _t55, out=_t50)
    _t57 = _t1[1:3, 0:2, 1:3]
    np.add(_t50, _t57, out=_t50)
    _t59 = _t1[1:3, 1:3, 0:2]
    np.add(_t50, _t59, out=_t50)
    _t61 = _t1[1:3, 1:3, 1:3]
    np.add(_t50, _t61, out=_t50)
    del _t1, _t2, _t4, _t6, _t7, _t11, _t12, _t16, _t17, _t19, _t21, _t25, _t26, _t30, _t31, _t33, _t35, _t39, _t40, _t42, _t44, _t48, _t49, _t51, _t53, _t55, _t57, _t59, _t61
    np.multiply(0.125, _t50, out=_t50)
    _t3[1:4:2, 1:4:2, 1:4:2] = _t50
    del _t50
    return _t3

def Resid__6x6x6(u):
    _t1 = SetupPeriodicBorder__6x6x6(u)
    _t9 = _t1.reshape(-1)
    _t2 = _t9[0:132]
    _t3 = _t9[12:144]
    _t4, _t13 = np.empty((2, 132), dtype=np.float64)
    np.add(_t2, _t3, out=_t4)
    _t5 = _t9[72:204]
    np.add(_t4, _t5, out=_t4)
    _t7 = _t9[84:216]
    np.add(_t4, _t7, out=_t4)
    _t11 = _t9[36:168]
    _t12 = _t9[48:180]
    np.add(_t11, _t12, out=_t13)
    _t14 = _t9[6:138]
    np.add(_t13, _t14, out=_t13)
    _t16 = _t9[78:210]
    np.add(_t13, _t16, out=_t13)
    _t19 = _t4[0:130]
    _t20 = _t4[2:132]
    _t21 = (_t19 + _t20)
    np.multiply(0.08333333333333333, _t21, out=_t21)
    _t23 = _t4[1:131]
    _t24 = _t13[0:130]
    np.add(_t23, _t24, out=_t23)
    _t26 = _t13[2:132]
    np.add(_t23, _t26, out=_t23)
    np.multiply(0.16666666666666666, _t23, out=_t23)
    np.add(_t21, _t23, out=_t21)
    del _t4, _t19, _t20, _t23
    _t30 = _t9[43:173]
    _t31 = _t13[0:130]
    np.multiply(-2.6666666666666665, _t30, out=_t31)
    np.add(_t21, _t31, out=_t21)
    del _t13, _t24, _t26, _t31
    _t1[1:5, 1:5, 1:5] = np.ndarray((4, 4, 4), np.float64, _t21, 0, (288, 48, 8))
    del _t21
    return _t1

def SetupAxis__6x6x6_d(a):
    _t1 = a[4:5, 0:6, 0:6]
    a[0:1, 0:6, 0:6] = _t1
    _t3 = a[1:2, 0:6, 0:6]
    a[5:6, 0:6, 0:6] = _t3
    return a

def SetupPeriodicBorder__6x6x6_d(a):
    _t1 = SetupAxis__6x6x6_d(a)
    _t2 = SetupAxis__6x6x6_v1_d(_t1)
    del _t1
    _t3 = SetupAxis__6x6x6_v2_d(_t2)
    del _t2
    return _t3

def Smooth__6x6x6_d(r):
    _t1 = SetupPeriodicBorder__6x6x6_d(r)
    _t9 = _t1.reshape(-1)
    _t2 = _t9[36:168]
    _t3 = _t9[48:180]
    _t4 = (_t2 + _t3)
    _t5 = _t9[6:138]
    np.add(_t4, _t5, out=_t4)
    _t7 = _t9[78:210]
    np.add(_t4, _t7, out=_t4)
    _t11 = _t9[1:131]
    _t12 = _t9[13:143]
    _t13 = (_t11 + _t12)
    _t14 = _t9[73:203]
    np.add(_t13, _t14, out=_t13)
    _t16 = _t9[85:215]
    np.add(_t13, _t16, out=_t13)
    _t18 = _t4[0:130]
    np.add(_t13, _t18, out=_t13)
    _t20 = _t4[2:132]
    np.add(_t13, _t20, out=_t13)
    np.multiply(-0.015625, _t13, out=_t13)
    _t23 = _t9[42:172]
    _t24 = _t9[44:174]
    _t25 = (_t23 + _t24)
    _t26 = _t4[1:131]
    np.add(_t25, _t26, out=_t25)
    np.multiply(0.03125, _t25, out=_t25)
    np.add(_t13, _t25, out=_t13)
    del _t25
    _t30 = _t9[43:173]
    _t31 = _t4[0:130]
    np.multiply(-0.375, _t30, out=_t31)
    np.add(_t13, _t31, out=_t13)
    del _t4, _t18, _t20, _t26, _t31
    _t1[1:5, 1:5, 1:5] = np.ndarray((4, 4, 4), np.float64, _t13, 0, (288, 48, 8))
    del _t13
    return _t1

def VCycle__6x6x6_d(r):
    _t1 = Fine2Coarse__6x6x6(r)
    _t2 = VCycle__4x4x4_d(_t1)
    del _t1
    _t3 = Coarse2Fine__4x4x4_d(_t2)
    del _t2
    _t4 = Resid__6x6x6(_t3)
    np.subtract(r, _t4, out=r)
    del _t4
    _t6 = Smooth__6x6x6_d(r)
    np.add(_t3, _t6, out=_t3)
    del _t6
    return _t3

def Coarse2Fine__6x6x6_d(rn):
    _t1 = SetupPeriodicBorder__6x6x6_d(rn)
    _t2 = _t1[0:5, 0:5, 0:5]
    _t3 = np.zeros((10, 10, 10), dtype=np.float64)
    _t3[0:9:2, 0:9:2, 0:9:2] = _t2
    _t4 = _t1[1:5, 1:5, 1:5]
    _t3[2:9:2, 2:9:2, 2:9:2] = _t4
    _t6 = _t1[1:5, 1:5, 0:4]
    _t7 = _t1[1:5, 1:5, 1:5]
    _t8 = (_t6 + _t7)
    np.multiply(0.5, _t8, out=_t8)
    _t3[2:9:2, 2:9:2, 1:8:2] = _t8
    del _t8
    _t11 = _t1[1:5, 0:4, 1:5]
    _t12 = _t1[1:5, 1:5, 1:5]
    _t13 = (_t11 + _t12)
    np.multiply(0.5, _t13, out=_t13)
    _t3[2:9:2, 1:8:2, 2:9:2] = _t13
    del _t13
    _t16 = _t1[1:5, 0:4, 0:4]
    _t17 = _t1[1:5, 0:4, 1:5]
    _t18 = (_t16 + _t17)
    _t19 = _t1[1:5, 1:5, 0:4]
    np.add(_t18, _t19, out=_t18)
    _t21 = _t1[1:5, 1:5, 1:5]
    np.add(_t18, _t21, out=_t18)
    np.multiply(0.25, _t18, out=_t18)
    _t3[2:9:2, 1:8:2, 1:8:2] = _t18
    del _t18
    _t25 = _t1[0:4, 1:5, 1:5]
    _t26 = _t1[1:5, 1:5, 1:5]
    _t27 = (_t25 + _t26)
    np.multiply(0.5, _t27, out=_t27)
    _t3[1:8:2, 2:9:2, 2:9:2] = _t27
    del _t27
    _t30 = _t1[0:4, 1:5, 0:4]
    _t31 = _t1[0:4, 1:5, 1:5]
    _t32 = (_t30 + _t31)
    _t33 = _t1[1:5, 1:5, 0:4]
    np.add(_t32, _t33, out=_t32)
    _t35 = _t1[1:5, 1:5, 1:5]
    np.add(_t32, _t35, out=_t32)
    np.multiply(0.25, _t32, out=_t32)
    _t3[1:8:2, 2:9:2, 1:8:2] = _t32
    del _t32
    _t39 = _t1[0:4, 0:4, 1:5]
    _t40 = _t1[0:4, 1:5, 1:5]
    _t41 = (_t39 + _t40)
    _t42 = _t1[1:5, 0:4, 1:5]
    np.add(_t41, _t42, out=_t41)
    _t44 = _t1[1:5, 1:5, 1:5]
    np.add(_t41, _t44, out=_t41)
    np.multiply(0.25, _t41, out=_t41)
    _t3[1:8:2, 1:8:2, 2:9:2] = _t41
    del _t41
    _t48 = _t1[0:4, 0:4, 0:4]
    _t49 = _t1[0:4, 0:4, 1:5]
    _t50 = (_t48 + _t49)
    _t51 = _t1[0:4, 1:5, 0:4]
    np.add(_t50, _t51, out=_t50)
    _t53 = _t1[0:4, 1:5, 1:5]
    np.add(_t50, _t53, out=_t50)
    _t55 = _t1[1:5, 0:4, 0:4]
    np.add(_t50, _t55, out=_t50)
    _t57 = _t1[1:5, 0:4, 1:5]
    np.add(_t50, _t57, out=_t50)
    _t59 = _t1[1:5, 1:5, 0:4]
    np.add(_t50, _t59, out=_t50)
    _t61 = _t1[1:5, 1:5, 1:5]
    np.add(_t50, _t61, out=_t50)
    del _t1, _t2, _t4, _t6, _t7, _t11, _t12, _t16, _t17, _t19, _t21, _t25, _t26, _t30, _t31, _t33, _t35, _t39, _t40, _t42, _t44, _t48, _t49, _t51, _t53, _t55, _t57, _t59, _t61
    np.multiply(0.125, _t50, out=_t50)
    _t3[1:8:2, 1:8:2, 1:8:2] = _t50
    del _t50
    return _t3

def Resid__10x10x10(u):
    _t1 = SetupPeriodicBorder__10x10x10(u)
    _t9 = _t1.reshape(-1)
    _t2 = _t9[0:780]
    _t3 = _t9[20:800]
    _t4, _t13 = np.empty((2, 780), dtype=np.float64)
    np.add(_t2, _t3, out=_t4)
    _t5 = _t9[200:980]
    np.add(_t4, _t5, out=_t4)
    _t7 = _t9[220:1000]
    np.add(_t4, _t7, out=_t4)
    _t11 = _t9[100:880]
    _t12 = _t9[120:900]
    np.add(_t11, _t12, out=_t13)
    _t14 = _t9[10:790]
    np.add(_t13, _t14, out=_t13)
    _t16 = _t9[210:990]
    np.add(_t13, _t16, out=_t13)
    _t19 = _t4[0:778]
    _t20 = _t4[2:780]
    _t21 = (_t19 + _t20)
    np.multiply(0.08333333333333333, _t21, out=_t21)
    _t23 = _t4[1:779]
    _t24 = _t13[0:778]
    np.add(_t23, _t24, out=_t23)
    _t26 = _t13[2:780]
    np.add(_t23, _t26, out=_t23)
    np.multiply(0.16666666666666666, _t23, out=_t23)
    np.add(_t21, _t23, out=_t21)
    del _t4, _t19, _t20, _t23
    _t30 = _t9[111:889]
    _t31 = _t13[0:778]
    np.multiply(-2.6666666666666665, _t30, out=_t31)
    np.add(_t21, _t31, out=_t21)
    del _t13, _t24, _t26, _t31
    _t1[1:9, 1:9, 1:9] = np.ndarray((8, 8, 8), np.float64, _t21, 0, (800, 80, 8))
    del _t21
    return _t1

def SetupAxis__10x10x10_d(a):
    _t1 = a[8:9, 0:10, 0:10]
    a[0:1, 0:10, 0:10] = _t1
    _t3 = a[1:2, 0:10, 0:10]
    a[9:10, 0:10, 0:10] = _t3
    return a

def SetupPeriodicBorder__10x10x10_d(a):
    _t1 = SetupAxis__10x10x10_d(a)
    _t2 = SetupAxis__10x10x10_v1_d(_t1)
    del _t1
    _t3 = SetupAxis__10x10x10_v2_d(_t2)
    del _t2
    return _t3

def Smooth__10x10x10_d(r):
    _t1 = SetupPeriodicBorder__10x10x10_d(r)
    _t9 = _t1.reshape(-1)
    _t2 = _t9[100:880]
    _t3 = _t9[120:900]
    _t4 = (_t2 + _t3)
    _t5 = _t9[10:790]
    np.add(_t4, _t5, out=_t4)
    _t7 = _t9[210:990]
    np.add(_t4, _t7, out=_t4)
    _t11 = _t9[1:779]
    _t12 = _t9[21:799]
    _t13 = (_t11 + _t12)
    _t14 = _t9[201:979]
    np.add(_t13, _t14, out=_t13)
    _t16 = _t9[221:999]
    np.add(_t13, _t16, out=_t13)
    _t18 = _t4[0:778]
    np.add(_t13, _t18, out=_t13)
    _t20 = _t4[2:780]
    np.add(_t13, _t20, out=_t13)
    np.multiply(-0.015625, _t13, out=_t13)
    _t23 = _t9[110:888]
    _t24 = _t9[112:890]
    _t25 = (_t23 + _t24)
    _t26 = _t4[1:779]
    np.add(_t25, _t26, out=_t25)
    np.multiply(0.03125, _t25, out=_t25)
    np.add(_t13, _t25, out=_t13)
    del _t25
    _t30 = _t9[111:889]
    _t31 = _t4[0:778]
    np.multiply(-0.375, _t30, out=_t31)
    np.add(_t13, _t31, out=_t13)
    del _t4, _t18, _t20, _t26, _t31
    _t1[1:9, 1:9, 1:9] = np.ndarray((8, 8, 8), np.float64, _t13, 0, (800, 80, 8))
    del _t13
    return _t1

def VCycle__10x10x10_d(r):
    _t1 = Fine2Coarse__10x10x10(r)
    _t2 = VCycle__6x6x6_d(_t1)
    del _t1
    _t3 = Coarse2Fine__6x6x6_d(_t2)
    del _t2
    _t4 = Resid__10x10x10(_t3)
    np.subtract(r, _t4, out=r)
    del _t4
    _t6 = Smooth__10x10x10_d(r)
    np.add(_t3, _t6, out=_t3)
    del _t6
    return _t3

def Coarse2Fine__10x10x10_d(rn):
    _t1 = SetupPeriodicBorder__10x10x10_d(rn)
    _t2 = _t1[0:9, 0:9, 0:9]
    _t3 = np.zeros((18, 18, 18), dtype=np.float64)
    _t3[0:17:2, 0:17:2, 0:17:2] = _t2
    _t4 = _t1[1:9, 1:9, 1:9]
    _t3[2:17:2, 2:17:2, 2:17:2] = _t4
    _t6 = _t1[1:9, 1:9, 0:8]
    _t7 = _t1[1:9, 1:9, 1:9]
    _t8 = (_t6 + _t7)
    np.multiply(0.5, _t8, out=_t8)
    _t3[2:17:2, 2:17:2, 1:16:2] = _t8
    del _t8
    _t11 = _t1[1:9, 0:8, 1:9]
    _t12 = _t1[1:9, 1:9, 1:9]
    _t13 = (_t11 + _t12)
    np.multiply(0.5, _t13, out=_t13)
    _t3[2:17:2, 1:16:2, 2:17:2] = _t13
    del _t13
    _t16 = _t1[1:9, 0:8, 0:8]
    _t17 = _t1[1:9, 0:8, 1:9]
    _t18 = (_t16 + _t17)
    _t19 = _t1[1:9, 1:9, 0:8]
    np.add(_t18, _t19, out=_t18)
    _t21 = _t1[1:9, 1:9, 1:9]
    np.add(_t18, _t21, out=_t18)
    np.multiply(0.25, _t18, out=_t18)
    _t3[2:17:2, 1:16:2, 1:16:2] = _t18
    del _t18
    _t25 = _t1[0:8, 1:9, 1:9]
    _t26 = _t1[1:9, 1:9, 1:9]
    _t27 = (_t25 + _t26)
    np.multiply(0.5, _t27, out=_t27)
    _t3[1:16:2, 2:17:2, 2:17:2] = _t27
    del _t27
    _t30 = _t1[0:8, 1:9, 0:8]
    _t31 = _t1[0:8, 1:9, 1:9]
    _t32 = (_t30 + _t31)
    _t33 = _t1[1:9, 1:9, 0:8]
    np.add(_t32, _t33, out=_t32)
    _t35 = _t1[1:9, 1:9, 1:9]
    np.add(_t32, _t35, out=_t32)
    np.multiply(0.25, _t32, out=_t32)
    _t3[1:16:2, 2:17:2, 1:16:2] = _t32
    del _t32
    _t39 = _t1[0:8, 0:8, 1:9]
    _t40 = _t1[0:8, 1:9, 1:9]
    _t41 = (_t39 + _t40)
    _t42 = _t1[1:9, 0:8, 1:9]
    np.add(_t41, _t42, out=_t41)
    _t44 = _t1[1:9, 1:9, 1:9]
    np.add(_t41, _t44, out=_t41)
    np.multiply(0.25, _t41, out=_t41)
    _t3[1:16:2, 1:16:2, 2:17:2] = _t41
    del _t41
    _t48 = _t1[0:8, 0:8, 0:8]
    _t49 = _t1[0:8, 0:8, 1:9]
    _t50 = (_t48 + _t49)
    _t51 = _t1[0:8, 1:9, 0:8]
    np.add(_t50, _t51, out=_t50)
    _t53 = _t1[0:8, 1:9, 1:9]
    np.add(_t50, _t53, out=_t50)
    _t55 = _t1[1:9, 0:8, 0:8]
    np.add(_t50, _t55, out=_t50)
    _t57 = _t1[1:9, 0:8, 1:9]
    np.add(_t50, _t57, out=_t50)
    _t59 = _t1[1:9, 1:9, 0:8]
    np.add(_t50, _t59, out=_t50)
    _t61 = _t1[1:9, 1:9, 1:9]
    np.add(_t50, _t61, out=_t50)
    del _t1, _t2, _t4, _t6, _t7, _t11, _t12, _t16, _t17, _t19, _t21, _t25, _t26, _t30, _t31, _t33, _t35, _t39, _t40, _t42, _t44, _t48, _t49, _t51, _t53, _t55, _t57, _t59, _t61
    np.multiply(0.125, _t50, out=_t50)
    _t3[1:16:2, 1:16:2, 1:16:2] = _t50
    del _t50
    return _t3

def Resid__18x18x18(u):
    _t1 = SetupPeriodicBorder__18x18x18(u)
    _t9 = _t1.reshape(-1)
    _t2 = _t9[0:5148]
    _t3 = _t9[36:5184]
    _t4, _t13 = np.empty((2, 5148), dtype=np.float64)
    np.add(_t2, _t3, out=_t4)
    _t5 = _t9[648:5796]
    np.add(_t4, _t5, out=_t4)
    _t7 = _t9[684:5832]
    np.add(_t4, _t7, out=_t4)
    _t11 = _t9[324:5472]
    _t12 = _t9[360:5508]
    np.add(_t11, _t12, out=_t13)
    _t14 = _t9[18:5166]
    np.add(_t13, _t14, out=_t13)
    _t16 = _t9[666:5814]
    np.add(_t13, _t16, out=_t13)
    _t19 = _t4[0:5146]
    _t20 = _t4[2:5148]
    _t21 = (_t19 + _t20)
    np.multiply(0.08333333333333333, _t21, out=_t21)
    _t23 = _t4[1:5147]
    _t24 = _t13[0:5146]
    np.add(_t23, _t24, out=_t23)
    _t26 = _t13[2:5148]
    np.add(_t23, _t26, out=_t23)
    np.multiply(0.16666666666666666, _t23, out=_t23)
    np.add(_t21, _t23, out=_t21)
    del _t4, _t19, _t20, _t23
    _t30 = _t9[343:5489]
    _t31 = _t13[0:5146]
    np.multiply(-2.6666666666666665, _t30, out=_t31)
    np.add(_t21, _t31, out=_t21)
    del _t13, _t24, _t26, _t31
    _t1[1:17, 1:17, 1:17] = np.ndarray((16, 16, 16), np.float64, _t21, 0, (2592, 144, 8))
    del _t21
    return _t1

def SetupAxis__18x18x18_d(a):
    _t1 = a[16:17, 0:18, 0:18]
    a[0:1, 0:18, 0:18] = _t1
    _t3 = a[1:2, 0:18, 0:18]
    a[17:18, 0:18, 0:18] = _t3
    return a

def SetupPeriodicBorder__18x18x18_d(a):
    _t1 = SetupAxis__18x18x18_d(a)
    _t2 = SetupAxis__18x18x18_v1_d(_t1)
    del _t1
    _t3 = SetupAxis__18x18x18_v2_d(_t2)
    del _t2
    return _t3

def Smooth__18x18x18_d(r):
    _t1 = SetupPeriodicBorder__18x18x18_d(r)
    _t9 = _t1.reshape(-1)
    _t2 = _t9[324:5472]
    _t3 = _t9[360:5508]
    _t4 = (_t2 + _t3)
    _t5 = _t9[18:5166]
    np.add(_t4, _t5, out=_t4)
    _t7 = _t9[666:5814]
    np.add(_t4, _t7, out=_t4)
    _t11 = _t9[1:5147]
    _t12 = _t9[37:5183]
    _t13 = (_t11 + _t12)
    _t14 = _t9[649:5795]
    np.add(_t13, _t14, out=_t13)
    _t16 = _t9[685:5831]
    np.add(_t13, _t16, out=_t13)
    _t18 = _t4[0:5146]
    np.add(_t13, _t18, out=_t13)
    _t20 = _t4[2:5148]
    np.add(_t13, _t20, out=_t13)
    np.multiply(-0.015625, _t13, out=_t13)
    _t23 = _t9[342:5488]
    _t24 = _t9[344:5490]
    _t25 = (_t23 + _t24)
    _t26 = _t4[1:5147]
    np.add(_t25, _t26, out=_t25)
    np.multiply(0.03125, _t25, out=_t25)
    np.add(_t13, _t25, out=_t13)
    del _t25
    _t30 = _t9[343:5489]
    _t31 = _t4[0:5146]
    np.multiply(-0.375, _t30, out=_t31)
    np.add(_t13, _t31, out=_t13)
    del _t4, _t18, _t20, _t26, _t31
    _t1[1:17, 1:17, 1:17] = np.ndarray((16, 16, 16), np.float64, _t13, 0, (2592, 144, 8))
    del _t13
    return _t1

def VCycle__18x18x18_d(r):
    _t1 = Fine2Coarse__18x18x18(r)
    _t2 = VCycle__10x10x10_d(_t1)
    del _t1
    _t3 = Coarse2Fine__10x10x10_d(_t2)
    del _t2
    _t4 = Resid__18x18x18(_t3)
    np.subtract(r, _t4, out=r)
    del _t4
    _t6 = Smooth__18x18x18_d(r)
    np.add(_t3, _t6, out=_t3)
    del _t6
    return _t3

def Coarse2Fine__18x18x18_d(rn):
    _t1 = SetupPeriodicBorder__18x18x18_d(rn)
    _t2 = _t1[0:17, 0:17, 0:17]
    _t3 = np.zeros((34, 34, 34), dtype=np.float64)
    _t3[0:33:2, 0:33:2, 0:33:2] = _t2
    _t4 = _t1[1:17, 1:17, 1:17]
    _t3[2:33:2, 2:33:2, 2:33:2] = _t4
    _t6 = _t1[1:17, 1:17, 0:16]
    _t7 = _t1[1:17, 1:17, 1:17]
    _t8 = (_t6 + _t7)
    np.multiply(0.5, _t8, out=_t8)
    _t3[2:33:2, 2:33:2, 1:32:2] = _t8
    del _t8
    _t11 = _t1[1:17, 0:16, 1:17]
    _t12 = _t1[1:17, 1:17, 1:17]
    _t13 = (_t11 + _t12)
    np.multiply(0.5, _t13, out=_t13)
    _t3[2:33:2, 1:32:2, 2:33:2] = _t13
    del _t13
    _t16 = _t1[1:17, 0:16, 0:16]
    _t17 = _t1[1:17, 0:16, 1:17]
    _t18 = (_t16 + _t17)
    _t19 = _t1[1:17, 1:17, 0:16]
    np.add(_t18, _t19, out=_t18)
    _t21 = _t1[1:17, 1:17, 1:17]
    np.add(_t18, _t21, out=_t18)
    np.multiply(0.25, _t18, out=_t18)
    _t3[2:33:2, 1:32:2, 1:32:2] = _t18
    del _t18
    _t25 = _t1[0:16, 1:17, 1:17]
    _t26 = _t1[1:17, 1:17, 1:17]
    _t27 = (_t25 + _t26)
    np.multiply(0.5, _t27, out=_t27)
    _t3[1:32:2, 2:33:2, 2:33:2] = _t27
    del _t27
    _t30 = _t1[0:16, 1:17, 0:16]
    _t31 = _t1[0:16, 1:17, 1:17]
    _t32 = (_t30 + _t31)
    _t33 = _t1[1:17, 1:17, 0:16]
    np.add(_t32, _t33, out=_t32)
    _t35 = _t1[1:17, 1:17, 1:17]
    np.add(_t32, _t35, out=_t32)
    np.multiply(0.25, _t32, out=_t32)
    _t3[1:32:2, 2:33:2, 1:32:2] = _t32
    del _t32
    _t39 = _t1[0:16, 0:16, 1:17]
    _t40 = _t1[0:16, 1:17, 1:17]
    _t41 = (_t39 + _t40)
    _t42 = _t1[1:17, 0:16, 1:17]
    np.add(_t41, _t42, out=_t41)
    _t44 = _t1[1:17, 1:17, 1:17]
    np.add(_t41, _t44, out=_t41)
    np.multiply(0.25, _t41, out=_t41)
    _t3[1:32:2, 1:32:2, 2:33:2] = _t41
    del _t41
    _t48 = _t1[0:16, 0:16, 0:16]
    _t49 = _t1[0:16, 0:16, 1:17]
    _t50 = (_t48 + _t49)
    _t51 = _t1[0:16, 1:17, 0:16]
    np.add(_t50, _t51, out=_t50)
    _t53 = _t1[0:16, 1:17, 1:17]
    np.add(_t50, _t53, out=_t50)
    _t55 = _t1[1:17, 0:16, 0:16]
    np.add(_t50, _t55, out=_t50)
    _t57 = _t1[1:17, 0:16, 1:17]
    np.add(_t50, _t57, out=_t50)
    _t59 = _t1[1:17, 1:17, 0:16]
    np.add(_t50, _t59, out=_t50)
    _t61 = _t1[1:17, 1:17, 1:17]
    np.add(_t50, _t61, out=_t50)
    del _t1, _t2, _t4, _t6, _t7, _t11, _t12, _t16, _t17, _t19, _t21, _t25, _t26, _t30, _t31, _t33, _t35, _t39, _t40, _t42, _t44, _t48, _t49, _t51, _t53, _t55, _t57, _t59, _t61
    np.multiply(0.125, _t50, out=_t50)
    _t3[1:32:2, 1:32:2, 1:32:2] = _t50
    del _t50
    return _t3

def SetupAxis__34x34x34_d(a):
    _t1 = a[32:33, 0:34, 0:34]
    a[0:1, 0:34, 0:34] = _t1
    _t3 = a[1:2, 0:34, 0:34]
    a[33:34, 0:34, 0:34] = _t3
    return a

def SetupPeriodicBorder__34x34x34_d(a):
    _t1 = SetupAxis__34x34x34_d(a)
    _t2 = SetupAxis__34x34x34_v1_d(_t1)
    del _t1
    _t3 = SetupAxis__34x34x34_v2_d(_t2)
    del _t2
    return _t3

def Smooth__34x34x34_d(r):
    _t1 = SetupPeriodicBorder__34x34x34_d(r)
    _t9 = _t1.reshape(-1)
    _t2 = _t9[1156:38080]
    _t3 = _t9[1224:38148]
    _t4 = (_t2 + _t3)
    _t5 = _t9[34:36958]
    np.add(_t4, _t5, out=_t4)
    _t7 = _t9[2346:39270]
    np.add(_t4, _t7, out=_t4)
    _t11 = _t9[1:36923]
    _t12 = _t9[69:36991]
    _t13 = (_t11 + _t12)
    _t14 = _t9[2313:39235]
    np.add(_t13, _t14, out=_t13)
    _t16 = _t9[2381:39303]
    np.add(_t13, _t16, out=_t13)
    _t18 = _t4[0:36922]
    np.add(_t13, _t18, out=_t13)
    _t20 = _t4[2:36924]
    np.add(_t13, _t20, out=_t13)
    np.multiply(-0.015625, _t13, out=_t13)
    _t23 = _t9[1190:38112]
    _t24 = _t9[1192:38114]
    _t25 = (_t23 + _t24)
    _t26 = _t4[1:36923]
    np.add(_t25, _t26, out=_t25)
    np.multiply(0.03125, _t25, out=_t25)
    np.add(_t13, _t25, out=_t13)
    del _t25
    _t30 = _t9[1191:38113]
    _t31 = _t4[0:36922]
    np.multiply(-0.375, _t30, out=_t31)
    np.add(_t13, _t31, out=_t13)
    del _t4, _t18, _t20, _t26, _t31
    _t1[1:33, 1:33, 1:33] = np.ndarray((32, 32, 32), np.float64, _t13, 0, (9248, 272, 8))
    del _t13
    return _t1

def VCycle__34x34x34_d(r):
    _t1 = Fine2Coarse__34x34x34(r)
    _t2 = VCycle__18x18x18_d(_t1)
    del _t1
    _t3 = Coarse2Fine__18x18x18_d(_t2)
    del _t2
    _t4 = Resid__34x34x34(_t3)
    np.subtract(r, _t4, out=r)
    del _t4
    _t6 = Smooth__34x34x34_d(r)
    np.add(_t3, _t6, out=_t3)
    del _t6
    return _t3

def MGrid_loop__34x34x34_34x34x34_d1(v, u, _n):
    for _ in range(_n):
        _t1 = Resid__34x34x34(u)
        np.subtract(v, _t1, out=_t1)
        _t3 = VCycle__34x34x34_d(_t1)
        del _t1
        np.add(u, _t3, out=u)
        del _t3
    return u

def MGrid__34x34x34(v):
    _t1 = np.zeros((34, 34, 34), dtype=np.float64)
    _t2 = MGrid_loop__34x34x34_34x34x34_d1(v, _t1, 4)
    del _t1
    return _t2

def Resid__34x34x34_d(u):
    _t1 = SetupPeriodicBorder__34x34x34_d(u)
    _t9 = _t1.reshape(-1)
    _t2 = _t9[0:36924]
    _t3 = _t9[68:36992]
    _t4, _t13 = np.empty((2, 36924), dtype=np.float64)
    np.add(_t2, _t3, out=_t4)
    _t5 = _t9[2312:39236]
    np.add(_t4, _t5, out=_t4)
    _t7 = _t9[2380:39304]
    np.add(_t4, _t7, out=_t4)
    _t11 = _t9[1156:38080]
    _t12 = _t9[1224:38148]
    np.add(_t11, _t12, out=_t13)
    _t14 = _t9[34:36958]
    np.add(_t13, _t14, out=_t13)
    _t16 = _t9[2346:39270]
    np.add(_t13, _t16, out=_t13)
    _t19 = _t4[0:36922]
    _t20 = _t4[2:36924]
    _t21 = (_t19 + _t20)
    np.multiply(0.08333333333333333, _t21, out=_t21)
    _t23 = _t4[1:36923]
    _t24 = _t13[0:36922]
    np.add(_t23, _t24, out=_t23)
    _t26 = _t13[2:36924]
    np.add(_t23, _t26, out=_t23)
    np.multiply(0.16666666666666666, _t23, out=_t23)
    np.add(_t21, _t23, out=_t21)
    del _t4, _t19, _t20, _t23
    _t30 = _t9[1191:38113]
    _t31 = _t13[0:36922]
    np.multiply(-2.6666666666666665, _t30, out=_t31)
    np.add(_t21, _t31, out=_t21)
    del _t13, _t24, _t26, _t31
    _t1[1:33, 1:33, 1:33] = np.ndarray((32, 32, 32), np.float64, _t21, 0, (9248, 272, 8))
    del _t21
    return _t1

def FinalResidual(v):
    _t1 = MGrid__34x34x34(v)
    _t2 = Resid__34x34x34_d(_t1)
    del _t1
    np.subtract(v, _t2, out=_t2)
    return _t2
